"""Outside-in SCF I-V benchmark with a per-layer ledger (see README.md)."""
