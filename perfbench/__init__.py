"""The repository benchmark: open-loop wire, CPU-bound, overload and fabric workloads."""
