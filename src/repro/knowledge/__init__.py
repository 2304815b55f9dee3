"""Cross-file-system configuration-method knowledge base (Table 1)."""

from repro import _lazy

_lazy.install(globals(), {
    "repro.knowledge.fstable": ("FS_CONFIG_METHODS", "FileSystemEntry",
                                "config_method_table"),
})
