"""ragate: decide per question whether a RAG pipeline should retrieve.

The decision uses only externally available signals (knowledge-graph
connectivity, entity popularity, term frequency, question type/complexity,
context relevance) fed to a small tabular classifier, so no extra LLM call
is spent on the routing decision itself.
"""

__version__ = "0.1.0"
