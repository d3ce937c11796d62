#!/usr/bin/env python
"""Anonymous publish-subscribe over RAC, the paper's own sketch (§IV-C).

*"Nodes would subscribe to a given topic using their public pseudonym
key."* A topic is the list of its subscribers' pseudonym keys, which no
one can link to a node id; a publish is one anonymous ``send`` per key.
``send`` resolves the subscriber's group when it is called, so joins
that split the groups between subscribe and publish cannot strand a
subscription on a stale group id.
"""

from repro import RacConfig, RacSystem


def main() -> None:
    # Small groups so joins split them; timers far beyond honest churn.
    config = RacConfig.small(group_min=3, group_max=6, relay_timeout=60.0,
                             predecessor_timeout=60.0, rate_window=60.0, puzzle_bits=4)
    system = RacSystem(config, seed=99)
    nodes = system.bootstrap(8)
    system.run(1.5)

    whistleblower, readers = nodes[0], nodes[5:8]
    leaks = [system.pseudonym_keys[reader] for reader in readers]
    # The application's key directory: who answers to which pseudonym.
    holder = {key: node for node, key in system.pseudonym_keys.items()}

    before = system.directory.sizes()
    for _ in range(5):  # puzzle-gated joins push groups past group_max
        system.join()
    print(f"group sizes {before} -> {system.directory.sizes()} (joins split the groups)")

    story = b"document #42: the audit was never filed"
    for key in leaks:
        system.send(whistleblower, holder[key], story)
    system.run(12.0)

    for key in leaks:
        print(f"subscriber {holder[key] % 10**6}... received {system.delivered_messages(holder[key])}")
    leaked = [n for n in system.nodes if n not in readers and system.delivered_messages(n)]
    print(f"non-subscribers that received anything: {leaked} (must be empty)")
    print(f"evictions: {len(system.evicted)} (must be 0 - everyone honest)")


if __name__ == "__main__":
    main()
