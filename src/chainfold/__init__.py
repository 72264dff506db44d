"""Lattice block chains: folding, key-lock copying, and kinematics.

Import what you need from the submodules (`chainfold.folding`,
`chainfold.mdl`, ...); the package itself loads none of them.
"""

__version__ = "0.1.0"
