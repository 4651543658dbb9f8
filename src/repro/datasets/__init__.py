"""Synthetic datasets substituting the paper's proprietary corpora."""

from .addresses import generate_address_sample, generate_addresses
from .base import SyntheticDataset
from .citations import (
    author_idf,
    author_string_idf,
    generate_author_sample,
    generate_citations,
    generate_getoor_sample,
    suggest_min_idf,
)
from .io import load_dataset, save_dataset
from .labeled import sample_labeled_pairs, split_groups
from .restaurants import generate_restaurants
from .students import CURRENT_DATE, generate_students

__all__ = [
    "CURRENT_DATE",
    "SyntheticDataset",
    "author_idf",
    "author_string_idf",
    "generate_address_sample",
    "generate_addresses",
    "generate_author_sample",
    "generate_citations",
    "generate_getoor_sample",
    "generate_restaurants",
    "generate_students",
    "load_dataset",
    "sample_labeled_pairs",
    "save_dataset",
    "split_groups",
    "suggest_min_idf",
]
