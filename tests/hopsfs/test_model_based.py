"""Model-based test: the full stack vs the namespace reference model.

Hypothesis generates random operation sequences; each is applied both to a
real HopsFS-CL deployment (full NDB transaction machinery) and to
:class:`~tests.hopsfs.test_path_matrix.NamespaceModel`.  Outcomes (the
observed payload of a success, or the error class) must agree exactly.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from .conftest import make_fs, run
from .test_path_matrix import NamespaceModel, model_outcome, real_outcome

_NAMES = ("a", "b", "c")


def _paths():
    """All paths up to depth 2 over a tiny alphabet."""
    out = []
    for n1 in _NAMES:
        out.append(f"/{n1}")
        for n2 in _NAMES:
            out.append(f"/{n1}/{n2}")
    return out

_ALL_PATHS = _paths()

_op = st.one_of(
    st.tuples(st.just("mkdir"), st.sampled_from(_ALL_PATHS)),
    st.tuples(st.just("create"), st.sampled_from(_ALL_PATHS)),
    st.tuples(st.just("delete"), st.sampled_from(_ALL_PATHS)),
    st.tuples(st.just("exists"), st.sampled_from(_ALL_PATHS)),
    st.tuples(st.just("listdir"), st.sampled_from(_ALL_PATHS + ["/"])),
    st.tuples(
        st.just("rename"), st.sampled_from(_ALL_PATHS), st.sampled_from(_ALL_PATHS)
    ),
)


@given(st.lists(_op, max_size=14))
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_fs_agrees_with_reference_model(steps):
    fs = make_fs(num_namenodes=1, num_ndb_datanodes=2, election=False)
    client = fs.client()
    model = NamespaceModel()

    def scenario():
        outcomes = []
        for name, *args in steps:
            real = yield from real_outcome(client, name, args)
            outcomes.append((name, args, real, model_outcome(model, name, args)))
        return outcomes

    for name, args, real, expected in run(fs, scenario()):
        assert real == expected, f"{name}{tuple(args)}: real={real} expected={expected}"
