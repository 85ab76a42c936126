"""Synthetic workloads: schema/query families and instance generation.

These feed the benchmark harness: one schema family per Table-2 row, one
query family per column, plus conforming-instance enumeration/sampling
used by the Section 4.2 oracle and the property tests.
"""

from .generators import (
    random_graph,
    random_path_regex,
    random_query,
    random_regex,
    random_schema,
)
from .instances import (
    enumerate_instances,
    random_instance,
)
from .schemas import (
    chain_schema,
    join_schema,
    document_schema,
    random_dtd,
    schema_corpus,
    union_chain_schema,
    unordered_schema,
    wide_document_schema,
)
from .corpus import (
    CORPUS_OPERATIONS,
    batch_corpus,
    corpus_to_ndjson,
    write_corpus,
)
from .domains import (
    DOMAIN_NAMES,
    DomainCorpus,
    build_domain,
    corpus_records,
    domain_corpus,
)
from .domains import corpus_to_ndjson as domain_corpus_ndjson
from .mutations import (
    MUTATION_KINDS,
    mutate_schema,
)
from .queries import (
    bounded_join_query,
    chain_query,
    constant_label_query,
    constant_suffix_query,
    deep_tree_query,
    random_join_free_query,
    star_fanout_query,
)

__all__ = [
    "CORPUS_OPERATIONS",
    "DOMAIN_NAMES",
    "DomainCorpus",
    "MUTATION_KINDS",
    "batch_corpus",
    "build_domain",
    "corpus_records",
    "domain_corpus",
    "domain_corpus_ndjson",
    "bounded_join_query",
    "chain_query",
    "chain_schema",
    "constant_label_query",
    "constant_suffix_query",
    "corpus_to_ndjson",
    "deep_tree_query",
    "document_schema",
    "enumerate_instances",
    "join_schema",
    "mutate_schema",
    "random_dtd",
    "random_graph",
    "random_instance",
    "random_join_free_query",
    "random_path_regex",
    "random_query",
    "random_regex",
    "random_schema",
    "schema_corpus",
    "star_fanout_query",
    "union_chain_schema",
    "unordered_schema",
    "wide_document_schema",
    "write_corpus",
]
