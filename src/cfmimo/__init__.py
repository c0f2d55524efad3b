"""Cell-free massive MIMO user-association simulator.

Implements a scalable user-association pipeline (received-power masking,
service-aware link quality, priority normalization, exact capacity-constrained
assignment) plus closed-form and Monte-Carlo evaluation of symbol error rate
and detection probability, with the unscalable all-to-all association as the
comparison baseline.
"""
