"""The simulated Ext4 ecosystem: five utilities plus the kernel mount path.

Components (paper Figure 2):

- :mod:`repro.ecosystem.mke2fs` — create stage
- :mod:`repro.ecosystem.mount` — mount stage (``ext4_fill_super`` checks)
- :mod:`repro.ecosystem.e4defrag` — online stage
- :mod:`repro.ecosystem.resize2fs` — offline stage (implements the
  Figure-1 ``sparse_super2`` expansion bug)
- :mod:`repro.ecosystem.e2fsck` — offline checker

All components communicate only through the shared on-disk metadata of
:mod:`repro.fsimage` — the "metadata bridge" the paper's analyzer uses
to connect parameters across components.
"""

from repro import _lazy

_lazy.install(globals(), {
    "repro.ecosystem.featureset": ("FeatureSet", "COMPAT", "INCOMPAT",
                                   "RO_COMPAT"),
    "repro.ecosystem.mke2fs": ("Mke2fs", "Mke2fsConfig"),
    "repro.ecosystem.mount": ("Ext4Mount", "MountConfig"),
    "repro.ecosystem.e4defrag": ("E4defrag", "E4defragConfig"),
    "repro.ecosystem.resize2fs": ("Resize2fs", "Resize2fsConfig"),
    "repro.ecosystem.e2fsck": ("E2fsck", "E2fsckConfig", "FsckProblem"),
    "repro.ecosystem.dumpe2fs": ("Dumpe2fs", "Dumpe2fsConfig"),
    "repro.ecosystem.tune2fs": ("Tune2fs", "Tune2fsConfig"),
})
