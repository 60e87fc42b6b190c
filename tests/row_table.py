"""Candidate blocks over rows described as per-row dict vectors, for tests.

The library scores blocks that hold only text ids and reads the rows'
vectors from an opened index; tests describe rows as ``SparseVector`` dicts
and semantic arrays, keep them in a ``RowTable`` and score against that.
"""

from typing import Sequence

import numpy as np

from kbtopics.kb import Iri
from kbtopics.ranking import CandidateBlock, LexicalRows
from kbtopics.vectors import SparseVector


class RowTable:
    """Rows' vectors in memory, addressed by text id in the order they were
    added: a ``VectorSource`` like an opened index."""

    def __init__(self, dim: int):
        self.lex: list[SparseVector] = []
        self.sem = np.zeros((0, dim))

    def add(self, rows: Sequence[SparseVector], sem_matrix) -> np.ndarray:
        """Store the rows; returns their text ids."""
        sem_matrix = np.asarray(sem_matrix, dtype=np.float64)
        sem_matrix = sem_matrix.reshape(len(rows), self.sem.shape[1])
        first = len(self.lex)
        self.lex.extend(rows)
        self.sem = np.concatenate([self.sem, sem_matrix])
        return np.arange(first, len(self.lex), dtype=np.intp)

    def block(self, entity: Iri, rows: Sequence[SparseVector], sem_matrix,
              field_weights, distances) -> CandidateBlock:
        """A block over newly stored rows."""
        return CandidateBlock(
            entity=entity,
            text_ids=self.add(rows, sem_matrix),
            field_weights=np.asarray(field_weights, dtype=np.float64),
            distances=np.asarray(distances, dtype=np.float64),
        )

    def load_vectors(self, text_ids) -> tuple[LexicalRows, np.ndarray]:
        rows = [self.lex[i] for i in np.asarray(text_ids, dtype=np.intp).tolist()]
        indptr = np.zeros(len(rows) + 1, dtype=np.intp)
        np.cumsum([len(r) for r in rows], out=indptr[1:])
        lex_rows = LexicalRows(
            keys=np.array([k for r in rows for k in r], dtype=np.uint64),
            values=np.array([v for r in rows for v in r.values()], dtype=np.float64),
            indptr=indptr,
        )
        return lex_rows, self.semantic_rows(text_ids)

    def semantic_rows(self, text_ids) -> np.ndarray:
        return self.sem[np.asarray(text_ids, dtype=np.intp)]
