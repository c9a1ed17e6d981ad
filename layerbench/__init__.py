"""Layer-attributed benchmark of the Fig. 2 pipeline; entry point ``layerbench/run.py``."""
