"""matchconn: exact workbench for matchings connectivity matrices.

Submodules:
  exactalg   exact rank/det/inverse over Q and prime fields
  matchings  perfect matchings, fingerprints, the connectivity matrices
  graphs     graph containers, path decompositions, file formats
  hcount     Hamiltonian cycle and partial-solution counters
  tableaux   partitions, hooks, standard tableaux, rank formulas
  scheme     the association scheme on matchings and its spectrum
  amplify    Kronecker self-similarity in the big matrices
  reduction  CNF to counting-Hamiltonian-cycles compiler
  checks     the published values and the certification suites
  cli        command line entry points
"""

__version__ = "0.1.0"
