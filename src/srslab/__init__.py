"""Sequenced-replacement mini-batch sampling, measured three ways: exact
configuration counts, Monte-Carlo coverage statistics, and desk-scale SGD
training runs against epoch-shuffle and batched-replacement baselines."""
