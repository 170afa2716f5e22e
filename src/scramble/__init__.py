"""Scrambling diagnostics for small exactly diagonalizable quantum systems.

Computes Pauli-group-averaged and state-transfer out-of-time-ordered
correlators (OTOCs), mutual information, and Fock-Liouville entropy-production
rates, and checks two inequalities along concrete dynamics: the mutual
information dominates the averaged-OTOC decay, and its growth rate is
dominated by weighted local entropy productions plus an exchange term.
"""

__version__ = "0.1.0"
