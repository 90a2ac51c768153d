"""Shared helper of the network tests: a host whose requests queue in a `Store`."""

from repro.sim import Store


def inbox(net, addr):
    """Register a `Store`'s ``put`` as ``addr``'s handler and return the store:
    a test process reads what is delivered to ``addr`` with ``yield store.get()``."""
    store = Store(net.env, name=f"inbox:{addr}")
    net.register(addr, store.put)
    return store
