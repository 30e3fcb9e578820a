import pytest

from mpepsn import neuron, numerics


@pytest.fixture
def no_idle_buffers():
    """Start with no idle recycled buffers, so that every array of at least
    ``numerics.EMPTY_RECYCLE_BYTES`` the test allocates is fresh memory."""
    numerics.release_idle()


@pytest.fixture
def t0_fault(monkeypatch):
    """A parallel forward whose row 0 reads its own estimate as history
    instead of the zero history; every later row is left as computed."""
    forward = neuron.mpe_psn_forward

    def faulty(I, params, *args, **kwargs):
        tr = forward(I, params, *args, **kwargs)
        neuron._update(tr.u_hat[0], tr.I[0], params, tr.h[0], tr.o[0], tr.u[0])
        return tr

    monkeypatch.setattr(neuron, "mpe_psn_forward", faulty)
