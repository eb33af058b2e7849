"""Hypothesis strategies shared by property tests across packages."""

from hypothesis import strategies as st


@st.composite
def scenario_refs(draw):
    """A small instance of one scenario family, as a catalog reference."""
    family = draw(st.sampled_from(
        ("skew", "relations", "community", "thrash", "uniform", "star")
    ))

    def n(lo, hi):
        return draw(st.integers(lo, hi))

    exponent = draw(st.sampled_from((0.0, 0.8, 1.6)))
    params = {
        "skew": lambda: f"num_src={n(16, 96)},num_dst={n(16, 96)},"
        f"num_edges={n(32, 384)},exponent={exponent}",
        "relations": lambda: f"num_types={n(2, 3)},num_relations={n(2, 4)},"
        f"vertices_per_type={n(32, 96)},edges_per_relation={n(64, 256)}",
        "community": lambda: f"num_src=128,num_dst=128,num_edges={n(128, 768)},"
        f"num_blocks={n(2, 8)},mixing={exponent / 4}",
        "thrash": lambda: f"working_set={n(8, 48)},num_dst={n(4, 16)}",
        "uniform": lambda: f"num_dst={n(8, 64)},degree={n(1, 4)}",
        "star": lambda: f"num_leaves={n(16, 256)},num_hubs={n(1, 4)}",
    }[family]()
    return f"{family}:{params}"
