"""Two-timescale radio resource management for HetNets with wireless flexible backhaul.

Every name is imported from the module that defines it, such as
``hetnet_rrm.scenario`` or ``hetnet_rrm.rrm``; the package itself imports
nothing.
"""

__version__ = "0.1.0"
