"""Adaptive PID gain tuning driven by a physics-informed neural surrogate.

Modules: ground-truth plants and RK4 rollout (`plants`), Latin hypercube
training data (`sampling`), the differentiable surrogate network
(`network`, `model`), composite data+physics training (`training`), the
time-varying PID law and error recursion (`pid`), segment-wise gain
optimization (`gainopt`) and the Adam update both optimizers share (`adam`).
"""

__version__ = "0.1.0"
