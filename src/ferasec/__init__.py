"""IR-UWB radar frame-set toolkit.

Clutter filtering, envelope-based feature extraction (FERASEC),
multidimensional DTW and hybrid MLP-HMM sequence classification, a
deterministic synthetic corpus generator, and a leave-one-out
cross-validation harness.  Import from the layer modules
(``ferasec.frames``, ``ferasec.features``, ``ferasec.hmm``, ...).
"""

__version__ = "0.1.0"
