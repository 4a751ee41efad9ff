"""Burst-mode QAM link simulator.

A software baseband for a configurable burst link: frame assembly with
adjustable pilot density, coarse and fine carrier-frequency-offset
correction, pilot-aided single-tap equalization, link-quality metrics, a
seedable impairment channel, and a sweep harness with CSV and SigMF output.

Library code imports from the modules, e.g.
``from burstlink.sync import receive_frames``.
"""

__version__ = "0.1.0"
