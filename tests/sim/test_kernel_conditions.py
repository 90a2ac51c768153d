"""Extra kernel coverage: condition failure modes, run() edge cases."""

import pytest

from repro.sim import AllOf, AnyOf, Environment, SimulationError


def test_all_of_fails_fast_on_member_failure():
    env = Environment()
    good = env.timeout(10, value="slow")
    bad = env.event()

    def failer():
        yield env.timeout(2)
        bad.fail(ValueError("member died"))

    def waiter():
        with pytest.raises(ValueError):
            yield AllOf(env, [good, bad])
        return env.now

    env.process(failer())
    proc = env.process(waiter())
    env.run()
    assert proc.value == 2  # did not wait for the slow member


def test_any_of_fails_on_first_failure():
    env = Environment()
    slow = env.timeout(10)
    bad = env.event()

    def failer():
        yield env.timeout(1)
        bad.fail(RuntimeError("boom"))

    def waiter():
        with pytest.raises(RuntimeError):
            yield AnyOf(env, [slow, bad])
        return "handled"

    env.process(failer())
    proc = env.process(waiter())
    env.run()
    assert proc.value == "handled"


def test_condition_with_already_processed_events():
    env = Environment()
    t = env.timeout(1, value="early")

    def waiter():
        yield env.timeout(5)
        results = yield AllOf(env, [t])  # t processed long ago
        return list(results.values())

    assert env.run_process(waiter()) == ["early"]


def test_conditions_reject_mixed_environments():
    env_a, env_b = Environment(), Environment()
    t_a = env_a.timeout(1)
    t_b = env_b.timeout(1)
    with pytest.raises(SimulationError):
        AllOf(env_a, [t_a, t_b])


def test_run_until_in_the_past_rejected():
    env = Environment()

    def advance():
        yield env.timeout(10)

    env.run_process(advance())
    with pytest.raises(SimulationError):
        env.run(until=5)


def test_step_on_empty_queue_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_peek_empty_is_infinite():
    env = Environment()
    assert env.peek() == float("inf")


def test_fail_requires_exception_instance():
    env = Environment()
    with pytest.raises(SimulationError):
        env.event().fail("not an exception")


def test_env_helpers_all_of_any_of():
    env = Environment()

    def proc():
        r1 = yield env.all_of([env.timeout(1, value="a")])
        r2 = yield env.any_of([env.timeout(1, value="b"), env.timeout(9)])
        return list(r1.values()) + list(r2.values())

    assert env.run_process(proc()) == ["a", "b"]
