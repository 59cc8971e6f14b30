"""Seeded N-table restaurant models, emitted as .obd text.

The family repeats the actions, events and requirement of
models/restaurant.obd once per table, with two differences: there is no
`move_to_dining`, and `move_to_table<i>` is enabled from every location
other than table i. The seed draws every occurrence probability, and every
effect probability that restaurant.obd states, from {1/20, ..., 19/20};
effects restaurant.obd makes certain stay certain. The seed never changes
the structure, so the state count and the sparsity pattern of every
compiled matrix depend on the table count and the deadline only.
"""

from __future__ import annotations

import random

PROB_TWENTIETHS = range(1, 20)


def restaurant_text(tables: int, seed: int, within: int | None = None) -> str:
    """Model text for `tables` tables; `within` turns every serve<i> into a
    deadline requirement (kind DFA) with that many action steps."""
    rng = random.Random(seed)

    def prob() -> str:
        return f"{rng.choice(PROB_TWENTIETHS)}/20"

    ids = range(1, tables + 1)
    locations = ["inDining_room", "inKitchen"] + [f"atTable{i}" for i in ids]
    lines = [f"# {tables}-table restaurant, seed {seed}"
             + (f", serve within {within}" if within else ""),
             f"Variable location domain {{{', '.join(locations)}}}"]
    for i in ids:
        lines.append(f"Variable table{i} domain "
                     "{empty, occupied, requested, received}")
        lines.append(f"Variable looked{i}")

    for i in ids:
        elsewhere = " || ".join(f"location={loc}" for loc in locations
                                if loc != f"atTable{i}")
        lines += [f"Action move_to_table{i}",
                  f"    if {elsewhere}",
                  f"    effects <location=atTable{i} prob {prob()}>",
                  "    cost 1"]
    for i in ids:
        lines += [f"Action show_menu{i}",
                  f"    if location=atTable{i} & table{i}=occupied"
                  f" & !looked{i}",
                  f"    effects <looked{i}>",
                  "    cost 1",
                  f"Action get_order{i}",
                  f"    if location=atTable{i} & table{i}=requested",
                  f"    effects <table{i}=received prob {prob()}>",
                  "    cost 1"]

    for i in ids:
        lines += [f"Event customer_arrives{i}",
                  f"    if table{i}=empty occur prob {prob()}",
                  f"    effects <table{i}=occupied !looked{i}>",
                  f"Event request_to_order{i}",
                  f"    if table{i}=occupied & looked{i} occur prob {prob()}",
                  f"    effects <table{i}=requested>",
                  f"    if table{i}=occupied & !looked{i} occur prob {prob()}",
                  f"    effects <table{i}=requested>",
                  f"Event customer_leaves{i}",
                  f"    if table{i}=requested occur prob {prob()}",
                  f"    effects <table{i}=empty>",
                  f"Event customer_served{i}",
                  f"    if table{i}=received occur prob {prob()}",
                  f"    effects <table{i}=empty>"]

    deadline = f" within {within}" if within else ""
    for i in ids:
        lines += [f"ReqID serve{i}",
                  f"    achieve table{i}=received{deadline}",
                  f"    if table{i}=requested",
                  f"    unless table{i}=empty",
                  "    reward 100"]

    init = ", ".join(["location=inDining_room"]
                     + [f"table{i}=empty, !looked{i}" for i in ids])
    lines.append(f"Init {{ {init} }}")
    return "\n".join(lines) + "\n"
