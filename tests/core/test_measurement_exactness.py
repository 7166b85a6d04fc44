"""Exactness of the cofactor-then-combine probability query (hypothesis).

:meth:`MeasurementEngine._restricted_probability` cofactors every slice by
the outcome cube, sums the cofactors with ``SliceMass`` and shifts the
integer pair right by the number of fixed variables; the total probability
and the distribution are built from the same query.  The reference below
keeps the combine-then-conjoin form it replaced (Eq. 12's hyper-function
over the full slices, ANDed with the cube), and every test demands
*identical* ``(x, y, k)`` integers, not merely equal floats.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.bitslice import VECTOR_NAMES
from repro.core.measurement import ExactProbability, MeasurementEngine
from repro.core.simulator import BitSliceSimulator

from tests.conftest import OP_ARITY, build_circuit_from_ops

NUM_QUBITS = 4
CLIFFORD_OPS = ("x", "y", "z", "h", "s", "sdg", "cx", "cz", "swap")


def reference_exact(engine: MeasurementEngine, qubits, outcome):
    """``(x, y, k)`` of the combine-then-conjoin query: the hyper-function
    over the full slices, conjoined with the outcome cube."""
    manager = engine.manager
    cube = manager.true
    for qubit, value in zip(qubits, outcome):
        cube = cube & manager.literal(engine.state.qubit_var(qubit), bool(value))
    exact = engine._accumulate(engine.build_hyperfunction() & cube)
    return exact.x, exact.y, exact.k


def new_exact(engine: MeasurementEngine, qubits, outcome):
    exact = engine._restricted_probability(qubits, outcome)
    return exact.x, exact.y, exact.k


@st.composite
def op_lists(draw, mnemonics=tuple(OP_ARITY), max_size=24):
    size = draw(st.integers(min_value=0, max_value=max_size))
    ops = []
    for _ in range(size):
        mnemonic = draw(st.sampled_from(mnemonics))
        qubits = draw(st.permutations(list(range(NUM_QUBITS))))
        ops.append((mnemonic, tuple(qubits[:OP_ARITY[mnemonic]])))
    return ops


#: Cubes as ``(qubit, value)`` pairs in any order, with repeats (equal or
#: conflicting values) allowed; empty and full cubes included.
cubes = st.lists(st.tuples(st.integers(0, NUM_QUBITS - 1), st.integers(0, 1)),
                 min_size=0, max_size=NUM_QUBITS + 2)


def split(cube):
    return [qubit for qubit, _ in cube], [value for _, value in cube]


@settings(max_examples=60, deadline=None)
@given(op_lists(), cubes)
def test_random_circuits_match_combine_then_conjoin(ops, cube):
    simulator = BitSliceSimulator.simulate(build_circuit_from_ops(NUM_QUBITS, ops))
    engine = MeasurementEngine(simulator.state)
    qubits, outcome = split(cube)
    assert new_exact(engine, qubits, outcome) == reference_exact(engine, qubits, outcome)


@settings(max_examples=40, deadline=None)
@given(op_lists(), st.permutations(list(range(NUM_QUBITS))))
def test_full_cubes_in_any_qubit_order(ops, order):
    simulator = BitSliceSimulator.simulate(build_circuit_from_ops(NUM_QUBITS, ops))
    engine = MeasurementEngine(simulator.state)
    for basis in range(1 << NUM_QUBITS):
        outcome = [(basis >> position) & 1 for position in range(NUM_QUBITS)]
        assert (new_exact(engine, order, outcome)
                == reference_exact(engine, order, outcome))


def function_of(manager, truth_table: int):
    """The BDD over qubit variables ``0..NUM_QUBITS-1`` whose value on
    basis index ``i`` (qubit 0 most significant) is bit ``i`` of the table."""
    function = manager.false
    for index in range(1 << NUM_QUBITS):
        if truth_table >> index & 1:
            minterm = manager.true
            for qubit in range(NUM_QUBITS):
                bit = (index >> (NUM_QUBITS - 1 - qubit)) & 1
                minterm = minterm & manager.literal(qubit, bool(bit))
            function = function | minterm
    return function


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda r: st.lists(
           st.integers(0, (1 << (1 << NUM_QUBITS)) - 1),
           min_size=4 * r, max_size=4 * r)),
       st.permutations(list(range(NUM_QUBITS))), cubes)
def test_arbitrary_slices_under_any_order(tables, order, cube):
    # Slices drawn as arbitrary Boolean functions, not only those a circuit
    # reaches: restricting one fixed variable can leave a node labelled by
    # another fixed variable below the free one the walk stopped at.
    state = BitSliceSimulator(NUM_QUBITS).state
    manager = state.manager
    r = len(tables) // 4
    state.r = r
    state.slices = {name: [function_of(manager, table)
                           for table in tables[index * r:(index + 1) * r]]
                    for index, name in enumerate(VECTOR_NAMES)}
    manager.set_order(order)
    engine = MeasurementEngine(state)
    qubits, outcome = split(cube)
    assert new_exact(engine, qubits, outcome) == reference_exact(engine, qubits, outcome)


def test_duplicate_and_conflicting_qubits():
    circuit = build_circuit_from_ops(3, [("h", (0,)), ("t", (0,)), ("cx", (0, 1)),
                                         ("h", (2,))])
    engine = MeasurementEngine(BitSliceSimulator.simulate(circuit).state)
    repeated = new_exact(engine, [1, 0, 1, 1], [1, 1, 1, 1])
    assert repeated == new_exact(engine, [0, 1], [1, 1])
    assert repeated == reference_exact(engine, [1, 0, 1, 1], [1, 1, 1, 1])
    x, y, k = new_exact(engine, [2, 0, 2], [0, 1, 1])
    assert (x, y) == (0, 0)
    assert (x, y, k) == reference_exact(engine, [2, 0, 2], [0, 1, 1])
    assert engine.probability_of_outcome([0, 0], [0, 1]) == 0.0


def test_sift_leaves_a_non_identity_order_and_the_query_exact():
    # Interleaved pairs (0,2), (1,3), (4,6), (5,7) entangled by CX: the
    # identity order separates every pair, so sifting moves variables.
    ops = [("h", (0,)), ("h", (1,)), ("h", (4,)), ("h", (5,)), ("t", (0,)),
           ("cx", (0, 2)), ("cx", (1, 3)), ("cx", (4, 6)), ("cx", (5, 7)),
           ("t", (3,)), ("t", (6,))]
    simulator = BitSliceSimulator.simulate(build_circuit_from_ops(8, ops))
    simulator.sift()
    manager = simulator.state.manager
    assert [manager.level_of(var) for var in range(8)] != list(range(8))
    engine = MeasurementEngine(simulator.state)
    for qubits in ([0, 2], [3, 1, 7], list(range(8)), [6]):
        for bits in range(1 << len(qubits)):
            outcome = [(bits >> p) & 1 for p in range(len(qubits))]
            assert (new_exact(engine, qubits, outcome)
                    == reference_exact(engine, qubits, outcome))


@settings(max_examples=40, deadline=None)
@given(op_lists(mnemonics=CLIFFORD_OPS), st.permutations(list(range(NUM_QUBITS))),
       st.lists(st.integers(0, 1), min_size=NUM_QUBITS, max_size=NUM_QUBITS))
def test_measure_qubit_collapse_stays_exact(ops, order, wanted):
    simulator = BitSliceSimulator.simulate(build_circuit_from_ops(NUM_QUBITS, ops))
    state = simulator.state
    for qubit, value in zip(order, wanted):
        reference_state = state.fork()
        reference = MeasurementEngine(reference_state)
        x, y, k = reference_exact(reference, [qubit], [value])
        if (x, y) == (0, 0):
            value = 1 - value
            x, y, k = reference_exact(reference, [qubit], [value])
        exact = ExactProbability(x, y, k)
        reference_state.project_qubit(qubit, value, exact.to_float(), exact=exact)

        MeasurementEngine(state).measure_qubit(qubit, forced_outcome=value)
        # Clifford outcomes are powers of two: k folds, s stays exactly 1.
        assert state.s == 1.0
        assert (state.k, state.s) == (reference_state.k, reference_state.s)
        for name in VECTOR_NAMES:
            assert ([bit.node for bit in state.slices[name]]
                    == [bit.node for bit in reference_state.slices[name]])


@settings(max_examples=30, deadline=None)
@given(op_lists(), st.lists(st.integers(0, NUM_QUBITS - 1), min_size=1,
                            max_size=NUM_QUBITS + 1))
def test_distribution_and_total_match_the_hyperfunction(ops, qubits):
    simulator = BitSliceSimulator.simulate(build_circuit_from_ops(NUM_QUBITS, ops))
    engine = MeasurementEngine(simulator.state)
    num_vars = engine.manager.num_vars
    distribution = engine.measurement_distribution(qubits)
    total = engine.total_probability()
    # No query adds Eq. 12's encoding variables to the manager.
    assert engine.manager.num_vars == num_vars
    scale = simulator.state.s ** 2
    expected = {}
    for outcome in range(1 << len(qubits)):
        bits = [(outcome >> (len(qubits) - 1 - position)) & 1
                for position in range(len(qubits))]
        probability = ExactProbability(
            *reference_exact(engine, qubits, bits)).to_float(scale)
        if probability > 1e-15:
            expected[outcome] = probability
    assert distribution == expected
    assert total == ExactProbability(*reference_exact(engine, [], [])).to_float(scale)
