"""CSR candidate blocks built from per-row dict vectors, for tests.

The library only builds blocks from the vector store; tests describe rows
as ``SparseVector`` dicts and convert them here.
"""

from typing import Sequence

import numpy as np

from kbtopics.kb import Iri
from kbtopics.ranking import CandidateBlock, LexicalRows
from kbtopics.vectors import SparseVector


def block_from_rows(
    entity: Iri,
    rows: Sequence[SparseVector],
    sem_matrix,
    field_weights,
    distances,
) -> CandidateBlock:
    indptr = np.zeros(len(rows) + 1, dtype=np.intp)
    np.cumsum([len(r) for r in rows], out=indptr[1:])
    lex_rows = LexicalRows(
        keys=np.array([k for r in rows for k in r], dtype=np.uint64),
        values=np.array([v for r in rows for v in r.values()], dtype=np.float64),
        indptr=indptr,
    )
    return CandidateBlock(
        entity=entity,
        lex_rows=lex_rows,
        sem_matrix=np.asarray(sem_matrix, dtype=np.float64),
        field_weights=np.asarray(field_weights, dtype=np.float64),
        distances=np.asarray(distances, dtype=np.float64),
    )
