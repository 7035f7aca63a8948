"""Shared run protocol — reads here count for both engines."""


def access_completed(config, settled):
    return settled >= config.run.settle
