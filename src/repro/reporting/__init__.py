"""Render every paper table and figure from live computation."""

from repro import _lazy

_lazy.install(globals(), {
    "repro.reporting.tables": ("render_table1", "render_table2",
                               "render_table3", "render_table4",
                               "render_table5", "render_figure1",
                               "render_figure2", "render_usages",
                               "render_mining"),
})
