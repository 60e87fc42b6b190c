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
    lex_rows = LexicalRows.stack([
        (np.array(list(r), dtype=np.uint64), np.array(list(r.values()), dtype=np.float64))
        for r in rows
    ])
    return CandidateBlock(
        entity=entity,
        lex_rows=lex_rows,
        sem_matrix=np.asarray(sem_matrix, dtype=np.float64),
        field_weights=np.asarray(field_weights, dtype=np.float64),
        distances=np.asarray(distances, dtype=np.float64),
    )
