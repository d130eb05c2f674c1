"""Sound branch-and-bound verification of the robust certificate conditions.

Two checks: the initial-set cap V <= beta, and the robust decrease condition
over the delta-inflated next-state ball. V > beta on the unsafe set needs
none: unsafe states take unsafe_mask, which ClbfParams holds above beta. The
checks share one loop, _branch_and_bound, and differ only in their box test
and their hunt: interval bounds prove boxes, and concrete points inside the
failed boxes are checked for exact counterexamples; both bound the filtered
value from above with certificate.filtered_upper_bound. A box that yields a
witness is refuted and dropped; the other failed boxes are bisected on their
widest dimension. Every verdict is sound: a Proved box admits no violation,
a reported witness violates its condition under exact point evaluation
(re-checked before reporting), and anything else is returned as Unknown
residue with its volume fraction.

The loop looks one level ahead: it bisects each failed box and tests both
halves before it hunts, and it hunts only the failed boxes that cannot be
split or have a failing half. Skipping the others cannot lose a witness: the
halves cover their box, so when both pass the box test no state of the box
violates the condition, and every witness is an exact violation. The halves
are queued with their test results, which their own round reuses instead of
bounding them again; a box is still proved only by its own box test.

The decrease hunt screens its points with the same interval bound, through
certificate.decrease_may_fail, the screen that adversarial training
(losses.loss_dec_grads) also uses: a point x whose delta-ball around
f(x, pi(x)) has filtered upper bound ub with epsilon - (V(x) - ub) < 0
cannot yield a witness, because every ball point the hunt evaluates (PGD
iterates, a point in the unsafe set) has value at most ub. Only the
remaining points get the inner PGD, so the screen saves work without
changing what is found. The exact check's ball maximum, ball_max, is also
adversarial training's and adversarial rollouts'. The hunt checks the box
centres first and stops there if they hold a witness. Otherwise it runs a
sign ascent on the nominal violation epsilon - V(x) + V(f(x, pi(x))) to its
end and checks all its iterates in one exact pass over the stacked points,
one screen, one PGD call and one unsafe-point search for them all, and
reports the witnesses of the first iterate set that has any. The ascent
only chooses where to look: the delta-ball is searched once per point set,
by the exact check, and the ascent step and the exact check share one
evaluation of a set. Checking the sets past the first with a witness finds
the same witnesses as stopping there: with INNER_PGD's two restarts
each set's random starts are the same draws, and only BLAS may round a
batch of the stacked rows differently. The hunt's generator is fresh for
each round, so the draws of the later sets move nothing after it.

The hunt searches in float32 and checks in float64. Each decrease check
makes float32 copies of the certificate and the policy once. The ascent's
gradients and a first pass of the screen run on them: a point is a
candidate when it is eligible to within beta + SLACK and its float32 screen
value epsilon - (V(x) - ub) is at least -SLACK. Where the float32 values
are off by less than SLACK, as rounding bounds them for the nets here, every
point that the float64 screen passes is a candidate. Only the candidates
are evaluated again in float64, and they go through the exact check above:
the float64 screen, the inner PGD over all the stacked rows (so that its
random starts are the same draws), the unsafe-point search and the
recheck. The search only decides where to look, and sign steps need only
the gradient's signs. Proofs and witnesses need float64: the box test, the
exact check and the recheck stay there, so "proved" and "witness" keep
their meaning, and a point that is not a candidate is never a witness.

The queue is processed in deterministic FIFO chunk order; within a chunk the
lexicographically smallest violating box wins, so verdicts are reproducible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import InitVar, dataclass, field, replace

import numpy as np

from .adversary import PgdConfig, check_delta, pgd_maximize_batch
from .boxes import Box, volumes
from .certificate import (FilteredCertificate, decrease_may_fail,
                          filtered_upper_bound)
from .envs import EnvSpec
from .nets import Mlp, forward_batch, ibp_bounds, input_jacobian

WITNESS_SLACK = 1e-9  # a witness must violate its condition by at least this


@dataclass
class Witness:
    state: np.ndarray
    condition: str  # "init" | "decrease"
    violation: float
    ball_point: np.ndarray | None = None  # decrease: the y realizing the violation


@dataclass
class Verdict:
    status: str  # "proved" | "counterexample" | "unknown"
    condition: str
    # a first witness may also be passed in this position, as in
    # Verdict(status, condition, w, [w]); it is stored only in witnesses
    first: InitVar[Witness | None] = None
    witnesses: list[Witness] = field(default_factory=list)
    # the Unknown residue: lower and upper corners, one (k, n) row per box
    unknown_lo: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    unknown_hi: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    unknown_volume_fraction: float = 0.0
    boxes_processed: int = 0
    # decrease: the points the hunt checked, the box centres and, where they
    # held no witness, every iterate of the ascent from them
    hunted_rows: int = 0
    pgd_rows: int = 0     # decrease: those of them the screen passed to PGD

    def __post_init__(self, first):
        if first is None:
            return
        if not self.witnesses:
            self.witnesses = [first]
        elif self.witnesses[0] is not first:
            raise ValueError("the first witness must be witnesses[0]")

    @property
    def witness(self) -> Witness | None:
        return self.witnesses[0] if self.witnesses else None

    @property
    def proved(self) -> bool:
        return self.status == "proved"

    @property
    def unknown_boxes(self) -> list[Box]:
        """The Unknown residue as boxes, built when read."""
        return [Box(lo, hi) for lo, hi in zip(self.unknown_lo, self.unknown_hi)]


# Settings no caller varies, read at call time. A setting becomes a
# BnbConfig field again only when two callers need different values.
MIN_WIDTH = 1e-4   # per-dimension refinement floor
CHUNK = 4096       # boxes per vectorised round
INNER_PGD = PgdConfig(steps=20, restarts=2)  # the hunt's ball search
OUTER_PGD_STEPS = 5  # sign-ascent steps on x inside a failed box
# The hunt's search runs on copies of the nets in this dtype: its ascent and
# the first screen of its point sets. The exact check and the rechecks run
# on the float64 nets.
SEARCH_DTYPE = np.float32
# How far the search's values and bounds may sit from the exact ones before
# a candidate is lost. float32 rounds to within a relative u = 2**-24
# (6e-8); an affine layer of width n adds at most about n u of the magnitude
# |W| |a| of its terms, so over the four layers of at most 128 units here,
# on O(1) states, values and interval bounds, the search is off by about
# 4 * 128 * u = 3e-5 at worst, and 1e-3 leaves a margin of thirty. A SLACK
# too small can only lose a witness, never make a false witness or a false
# proof: every candidate is checked again in float64, and boxes are proved
# by the float64 box test alone.
SLACK = 1e-3


@dataclass
class BnbConfig:
    max_boxes: int = 2_000_000
    ce_limit: int = 1        # stop after this many exact counterexamples
    seed: int = 0

    def validate(self):
        # written so that a NaN fails each test
        if not self.max_boxes >= 1:
            raise ValueError("max_boxes must be >= 1")
        if not self.ce_limit >= 1:
            raise ValueError("ce_limit must be >= 1")
        return self


# ---------------------------------------------------------------------------
# the shared branch-and-bound loop


def _split_widest(lo, hi, splittable):
    """Bisect each row along its widest splittable dimension."""
    width = np.where(splittable, hi - lo, -np.inf)
    d = np.argmax(width, axis=1)
    rows = np.arange(lo.shape[0])
    mid = 0.5 * (lo[rows, d] + hi[rows, d])
    lo2 = lo.copy()
    hi1 = hi.copy()
    hi1[rows, d] = mid
    lo2[rows, d] = mid
    return np.concatenate([lo, lo2]), np.concatenate([hi1, hi])


def _lex_sorted(lo: np.ndarray, hi: np.ndarray):
    """The boxes in lexicographic order of their lower corners."""
    order = np.lexsort(lo.T[::-1])
    return lo[order], hi[order]


def _branch_and_bound(roots: list[Box], cfg: BnbConfig, condition: str,
                      fails, hunt) -> Verdict:
    """Prove a condition over the union of roots by bisection.

    fails(lo, hi) is the box test: a mask of the boxes its bound does not
    prove. hunt(lo, hi, round) searches failed boxes (round counts chunks
    from 1) and returns the witnesses found in them as [(row, Witness)], by
    ascending row. Every box enters the queue with its test result. Each
    round takes one chunk of the queue, lexicographically orders its failed
    boxes, bisects those wider than MIN_WIDTH along their widest such
    side and tests the halves. It hunts only the failed boxes that cannot be
    split or have a failing half, takes witnesses up to cfg.ce_limit and
    drops the box of each one taken. The halves of the other splittable
    failed boxes are queued; the failed boxes that cannot be split, and the
    failed boxes of the queue left at a stop, are Unknown residue, kept as
    (lo, hi) arrays in the order they are left.
    """
    def tested(lo, hi):
        """The boxes with their box test, run on CHUNK boxes at a time."""
        fail = [fails(lo[s:s + CHUNK], hi[s:s + CHUNK])
                for s in range(0, lo.shape[0], CHUNK)]
        return lo, hi, np.concatenate(fail) if fail else np.zeros(0, dtype=bool)

    if not roots:
        return Verdict("proved", condition)
    r_lo, r_hi = np.stack([b.lo for b in roots]), np.stack([b.hi for b in roots])
    queue = deque([tested(r_lo, r_hi)])
    processed = rounds = 0
    residue = []  # (lo, hi) arrays of the Unknown boxes
    witnesses: list[Witness] = []

    while queue and processed < cfg.max_boxes and len(witnesses) < cfg.ce_limit:
        lo, hi, fail = queue.popleft()
        if lo.shape[0] > CHUNK:
            queue.appendleft((lo[CHUNK:], hi[CHUNK:], fail[CHUNK:]))
            lo, hi, fail = lo[:CHUNK], hi[:CHUNK], fail[:CHUNK]
        processed += lo.shape[0]
        rounds += 1
        lo, hi = _lex_sorted(lo[fail], hi[fail])
        splittable = (hi - lo) > MIN_WIDTH
        can_split = np.any(splittable, axis=1)
        n_split = np.count_nonzero(can_split)
        c_lo, c_hi, c_fail = tested(*_split_widest(lo[can_split], hi[can_split],
                                                   splittable[can_split]))
        # a box whose halves both pass holds no violation: no hunt there
        hunted = ~can_split
        hunted[can_split] = c_fail[:n_split] | c_fail[n_split:]
        rows = np.flatnonzero(hunted)
        found = hunt(lo[rows], hi[rows], rounds) if rows.size else []
        unrefuted = np.ones(lo.shape[0], dtype=bool)
        for j, w in found[:cfg.ce_limit - len(witnesses)]:
            witnesses.append(w)
            unrefuted[rows[j]] = False
        residue.append((lo[~can_split & unrefuted], hi[~can_split & unrefuted]))
        keep = np.tile(unrefuted[can_split], 2)
        if np.any(keep):
            queue.append((c_lo[keep], c_hi[keep], c_fail[keep]))

    # a queued box that passed its own test is proved, not Unknown
    residue.extend((lo[fail], hi[fail]) for lo, hi, fail in queue)
    u_lo, u_hi = (np.concatenate(a) for a in zip(*residue))
    status = "counterexample" if witnesses else "unknown" if len(u_lo) else "proved"
    total_vol = sum(volumes(r_lo, r_hi).tolist())
    return Verdict(status, condition, witnesses=witnesses, unknown_lo=u_lo, unknown_hi=u_hi,
                   unknown_volume_fraction=_vol_fraction(u_lo, u_hi, total_vol),
                   boxes_processed=processed)


def _vol_fraction(lo, hi, total_vol):
    """Share of total_vol in the boxes with (k, n) corners lo and hi: the
    built-in sum of their boxes.volumes over total_vol, capped at 1."""
    if total_vol <= 0:
        return 0.0
    return min(1.0, sum(volumes(lo, hi).tolist()) / total_vol)


# ---------------------------------------------------------------------------
# initial-set check


def check_init(cert: FilteredCertificate, cfg: BnbConfig | None = None) -> Verdict:
    """Branch-and-bound proof of V(x) <= beta over the initial set.

    A box passes when filtered_upper_bound, the decrease check's bound, is
    at most beta; a failed box whose center has filtered value above beta is
    refuted by it. A proved box is never split, and at each box this tiled
    bound is at most the whole-box bound up to float rounding (see
    filtered_upper_bound). So the search tree is a subtree of the whole-box
    bound's: never more boxes, and every box that bound proves is proved.
    """
    cfg = (cfg or BnbConfig()).validate()
    beta = cert.params.beta

    def fails(lo, hi):
        return filtered_upper_bound(cert, lo, hi) > beta

    def hunt(lo, hi, _round):
        centers = 0.5 * (lo + hi)
        excess = cert.value(centers) - beta
        return [(int(i), Witness(centers[i].copy(), "init", float(excess[i])))
                for i in np.flatnonzero(excess >= WITNESS_SLACK)]

    return _branch_and_bound(list(cert.env.init_boxes), cfg, "init", fails, hunt)


# ---------------------------------------------------------------------------
# robust decrease check


def check_robust_decrease(cert: FilteredCertificate, policy: Mlp, env: EnvSpec,
                          delta: float, epsilon: float,
                          cfg: BnbConfig | None = None) -> Verdict:
    """Verify V(x) - V(y) >= epsilon for all eligible x and every y in the
    delta-ball around f(x, pi(x)).

    Eligible states lie outside the goal with filtered value at most beta.
    The root cover tiles the domain minus the goal and unsafe sets exactly,
    so the left side uses raw network bounds (a conservative superset on the
    shared faces). Box test: raw lower bound of V over B minus the filtered
    upper bound over the inflated interval image must reach epsilon. env
    must be the certificate's own cert.env, or a ValueError is raised. The
    counterexample hunt searches on float32 copies of the two nets and
    checks what it finds on the nets themselves (see the module docstring).
    """
    if env is not cert.env:
        raise ValueError("env is not the certificate's environment cert.env")
    check_delta(delta)
    cfg = (cfg or BnbConfig()).validate()
    p = cert.params
    hunted_rows = pgd_rows = 0
    # the hunt's search copies; the box test and the exact check use the nets
    cert32 = replace(cert, net=cert.net.astype(SEARCH_DTYPE))
    policy32 = policy.astype(SEARCH_DTYPE)

    def fails(lo, hi):
        r_lo = ibp_bounds(cert.net, lo, hi)[0][:, 0]
        live = r_lo <= p.beta  # otherwise no eligible state in the box
        fail = live.copy()
        if np.any(live):
            lo, hi = lo[live], hi[live]
            # step_interval_arrays clamps the control bounds itself
            n_lo, n_hi = env.step_interval_arrays(lo, hi, *ibp_bounds(policy, lo, hi))
            rhs_hi = filtered_upper_bound(cert, n_lo - delta, n_hi + delta)
            fail[live] = ~(r_lo[live] - rhs_hi >= epsilon)
        return fail

    def hunt(lo, hi, round_):
        nonlocal hunted_rows, pgd_rows
        rng = np.random.default_rng((cfg.seed, round_))
        found, hunted, pgd = _hunt_decrease_ce(cert, policy, cert32, policy32,
                                               lo, hi, delta, epsilon, rng)
        hunted_rows += hunted
        pgd_rows += pgd
        return found

    verdict = _branch_and_bound(list(env.eligible_cover), cfg, "decrease", fails, hunt)
    verdict.hunted_rows, verdict.pgd_rows = hunted_rows, pgd_rows
    return verdict


def ball_max(cert: FilteredCertificate, nxt: np.ndarray, v_nxt: np.ndarray,
             delta: float, inner_pgd: PgdConfig, rng, active: np.ndarray):
    """Concrete lower bound on max filtered V over the delta-ball of each
    active row, together with the ball point attaining it, given the
    filtered values v_nxt at the centers nxt; inactive rows keep their
    center. Sound: only evaluates real ball points. PGD's point replaces
    the center only where it is strictly higher; a ball reaching into the
    unsafe set takes a point there, at unsafe_mask."""
    env, p = cert.env, cert.params
    best_y = nxt.copy()
    best_v = v_nxt.copy()
    if delta > 0:
        y = pgd_maximize_batch(cert.net, nxt, replace(inner_pgd, delta=delta),
                               rng, active)
        rows = np.flatnonzero(active)  # the rows that can have moved
        v = cert.value(y[rows])
        up = v > best_v[rows]
        best_v[rows[up]] = v[up]
        best_y[rows[up]] = y[rows[up]]
    # a ball reaching into the unsafe set realizes the unsafe mask
    ball_lo, ball_hi = nxt - delta, nxt + delta
    rows = np.flatnonzero(active & env.unsafe_intersects(ball_lo, ball_hi)
                          & (p.unsafe_mask > best_v))
    if rows.size:
        found, y_u = _points_in_unsafe(env, ball_lo[rows], ball_hi[rows])
        best_y[rows[found]] = y_u[found]
        best_v[rows[found]] = p.unsafe_mask
    return best_v, best_y


def _points_in_unsafe(env: EnvSpec, lo: np.ndarray, hi: np.ndarray):
    """A concrete point in the unsafe set of each of the (k, n) balls
    [lo, hi], where one is found: (found mask, points). Each row takes the
    first candidate in_unsafe accepts: the centre of its part in each unsafe
    box, then, for a ball that leaves the safe box (on pendulum, its
    domain), its centre with coordinate d pushed to lo[d] or hi[d], for
    each d in turn."""
    k, n = lo.shape
    u_lo = np.maximum(lo, np.array([b.lo for b in env.unsafe_boxes]).reshape(-1, 1, n))
    u_hi = np.minimum(hi, np.array([b.hi for b in env.unsafe_boxes]).reshape(-1, 1, n))
    pushed = np.repeat(0.5 * (lo + hi)[None], 2 * n, axis=0)
    for d in range(n):
        pushed[2 * d, :, d], pushed[2 * d + 1, :, d] = lo[:, d], hi[:, d]
    cands = np.concatenate([0.5 * (u_lo + u_hi), pushed])  # (candidates, k, n)
    ok = np.concatenate([np.all(u_lo <= u_hi, axis=2), np.ones((2 * n, k), dtype=bool)])
    ok &= env.in_unsafe(cands.reshape(-1, n)).reshape(ok.shape)
    first = np.argmax(ok, axis=0)
    return ok[first, np.arange(k)], cands[first, np.arange(k)]


def _hunt_decrease_ce(cert, policy, cert32, policy32, lo, hi, delta, epsilon, rng):
    """Exact counterexample search inside failed boxes. The box centers are
    checked first. If they hold no witness, a sign ascent of
    OUTER_PGD_STEPS steps on the nominal violation runs from them, and
    all its iterates are checked in one exact pass. The point sets are
    evaluated on the search copies cert32 and policy32 (SEARCH_DTYPE), the
    exact check on cert and policy. Returns the witnesses of the first point
    set that has any, as [(row_index, Witness)] by ascending row, the number
    of points checked, and the number of them passed to the inner PGD."""
    k, steps = lo.shape[0], OUTER_PGD_STEPS
    if k == 0:
        return [], 0, 0
    # sign ascent on g(x) = eps - V(x) + V(f(x, pi(x))), the violation at
    # delta = 0; the delta-ball is searched only by the exact check. The
    # ascent step and the check's first screen share one evaluation of each
    # point set (V at the next states too); the last set needs no gradient
    x = 0.5 * (lo + hi)
    centers = _point_set(cert32, policy32, x, True)
    found, pgd = _first_witnesses(cert, policy, cert32, [centers], delta, epsilon, rng)
    if found:
        return found, k, pgd
    step = (hi - lo) / (2.0 * steps)
    sets = [centers]
    for s in range(1, steps + 1):
        x = np.clip(x + step * np.sign(sets[-1][-1]), lo, hi)
        sets.append(_point_set(cert32, policy32, x, s < steps))
    found, pgd_ascent = _first_witnesses(cert, policy, cert32, sets[1:], delta,
                                         epsilon, rng)
    return found, k * (steps + 1), pgd + pgd_ascent


def _point_set(cert, policy, x, grad: bool):
    """(x, nxt, raw_x, v_nxt, g) for the states x, as _violation_grad gives
    them, with g None unless grad."""
    if grad:
        return (x, *_violation_grad(cert, policy, x))
    nxt = cert.env.step(x, forward_batch(policy, x))  # step clamps the control
    return x, nxt, cert.raw(x), cert.value(nxt), None


def _first_witnesses(cert, policy, cert32, sets, delta, epsilon, rng):
    """One exact check of the point sets [(x, nxt, raw_x, v_nxt, _)] of k
    rows each, evaluated on cert32 and stacked in order: the witnesses of the
    first set that has any that _recheck_decrease confirms, as
    [(row_index, Witness)] by ascending row, and the number of rows passed to
    the inner PGD. Only the _candidates are checked."""
    k = sets[0][0].shape[0]
    X, nxt, raw_x, v_nxt = (np.concatenate(a) for a in list(zip(*sets))[:4])
    rows = np.flatnonzero(_candidates(cert32, X, nxt, raw_x, v_nxt, delta, epsilon))
    viol, ball_pts, pgd = _exact_violation(cert, policy, X, nxt, rows, delta,
                                           epsilon, rng)
    found = []  # (stacked row, witness)
    for r in np.flatnonzero(viol >= WITNESS_SLACK):
        if found and r // k > found[0][0] // k:
            break  # past the first set with a witness
        w = Witness(X[r].copy(), "decrease", float(viol[r]), ball_pts[r].copy())
        if _recheck_decrease(cert, policy, w, delta, epsilon):
            found.append((r, w))
    return [(int(r % k), w) for r, w in found], pgd


def _candidates(cert32, X, nxt, raw_x, v_nxt, delta, epsilon):
    """The rows of states X that the exact check evaluates, given their
    next states nxt, raw values raw_x and filtered values v_nxt at nxt, all
    from the search copy cert32: eligible to within beta + SLACK, with
    epsilon - (v_x - ub) >= -SLACK for ub the filtered upper bound of the
    delta-ball around nxt (certificate.decrease_may_fail on cert32), or its
    centre's value v_nxt at delta = 0. Where the search's values and bounds
    are within SLACK of the exact ones, this holds every row that the exact
    screen passes, and so every witness."""
    v_x, _ = cert32.apply_masks(X, raw_x)
    eligible = ~cert32.env.in_goal(X) & (v_x <= cert32.params.beta + SLACK)
    if delta > 0:
        return decrease_may_fail(cert32, eligible, v_x, nxt, delta, epsilon + SLACK)
    return eligible & (epsilon + SLACK - (v_x - v_nxt) >= 0)


def _exact_violation(cert, policy, X, nxt, rows, delta, epsilon, rng):
    """Exact violation of the robust decrease condition at the rows `rows`
    of the states X, with the ball points realizing it and the number of
    rows sent to PGD. The rows' next states and values are evaluated here;
    every other row reports -inf. nxt holds next states for all rows: those
    of the other rows only centre PGD's draws, so that the inner PGD runs
    over all rows of X and each row's random starts do not depend on which
    rows are evaluated.

    Ineligible rows (inside goal, filtered value above beta) report -inf.
    For delta > 0 the inner search, INNER_PGD, runs only on the rows that
    certificate.decrease_may_fail passes, the screen that adversarial
    training shares: PGD's best iterate and the unsafe mask are both values
    at ball points, so neither exceeds the ball's interval upper bound ub,
    and a row with epsilon - (V(x) - ub) < 0 cannot reach WITNESS_SLACK (a
    margin far above the rounding error of ub). Such rows skip PGD and keep
    the value at their ball center, which leaves every witness unchanged.
    """
    env, p = cert.env, cert.params
    x = X[rows]
    nxt = nxt.astype(float)  # a float64 copy, whatever the search's dtype
    nxt[rows] = env.step(x, forward_batch(policy, x))  # step clamps the control
    v_nxt = np.full(X.shape[0], -np.inf)
    v_nxt[rows] = cert.value(nxt[rows])
    v_x = cert.value(x)
    eligible = ~env.in_goal(x) & (v_x <= p.beta)
    active = np.zeros(X.shape[0], dtype=bool)
    active[rows] = (decrease_may_fail(cert, eligible, v_x, nxt[rows], delta, epsilon)
                    if delta > 0 else eligible)
    best_v, best_y = ball_max(cert, nxt, v_nxt, delta, INNER_PGD, rng, active)
    viol = np.full(X.shape[0], -np.inf)
    viol[rows] = np.where(eligible, epsilon - (v_x - best_v[rows]), -np.inf)
    return viol, best_y, int(np.count_nonzero(active)) if delta > 0 else 0


def _violation_grad(cert, policy, X):
    """The next states nxt = f(X, pi(X)), the raw values V(X), the filtered
    values V(nxt), and the gradient w.r.t. x of the nominal violation
    eps - V(x) + V(f(x, pi(x))) at X. V(nxt) contributes only where the raw
    network applies; on the masked sets it is constant."""
    u, J_pi = input_jacobian(policy, X)
    nxt = cert.env.step(X, u)  # step clamps the control
    raw_x, J_x = input_jacobian(cert.net, X)
    raw_y, J_y = input_jacobian(cert.net, nxt)
    v_nxt, unmasked = cert.apply_masks(nxt, raw_y[:, 0])
    gVy = J_y[:, 0] * unmasked[:, None]
    A, B = cert.env.step_jac(X, u)
    g = -J_x[:, 0] + np.einsum("kij,ki->kj", A, gVy)
    gu = np.einsum("kij,ki->kj", B, gVy)
    return nxt, raw_x[:, 0], v_nxt, g + np.einsum("kmj,km->kj", J_pi, gu)


def _recheck_decrease(cert, policy, w: Witness, delta, epsilon) -> bool:
    """Witness contract: exact re-evaluation confirms the violation."""
    x = w.state[None]
    v_x = cert.value(x)[0]
    if cert.env.in_goal(x)[0] or v_x > cert.params.beta:
        return False
    nxt = cert.env.step(x, forward_batch(policy, x))[0]
    y = w.ball_point
    if np.abs(y - nxt).max() > delta + 1e-12:
        return False
    return epsilon - (v_x - cert.value(y[None])[0]) >= WITNESS_SLACK


# ---------------------------------------------------------------------------
# certified perturbation bound


def bisect_boundary(passes, good: float, bad: float, tol: float) -> float:
    """Bisect between an end good that passes and an end bad that fails, in
    either order, assuming passes switches once between them, until the ends
    are less than tol > 0 apart or adjacent floats. Returns the passing end."""
    while abs(bad - good) >= tol:
        mid = 0.5 * (good + bad)
        if not min(good, bad) < mid < max(good, bad):
            break
        if passes(mid):
            good = mid
        else:
            bad = mid
    return good


def certify_delta(cert: FilteredCertificate, policy: Mlp, cfg: BnbConfig | None = None,
                  delta_hi: float = 0.05, tol: float = 1e-4, epsilon: float = 1e-6):
    """Binary search for the largest verified perturbation radius on cert.env.

    Probes 0 and delta_hi, then bisects between them to within tol > 0 or
    to adjacent floats, assuming failure is monotone in delta. The decrease
    condition is re-verified at margin epsilon (1e-6 by default, independent
    of the training margin); Unknown verdicts count as failure, so the
    returned value is a sound lower bound. Requires the initial condition to
    hold first.

    Returns (delta_star, info dict).
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    cfg = cfg or BnbConfig()
    init_v = check_init(cert, cfg)
    info = {"init": init_v, "history": []}
    if not init_v.proved:
        info["reason"] = "precondition failed (init)"
        return 0.0, info

    def passes(delta):
        v = check_robust_decrease(cert, policy, cert.env, delta, epsilon, cfg)
        info["history"].append((delta, v.status))
        return v.proved

    if not passes(0.0):
        info["reason"] = "decrease condition fails at delta=0"
        return 0.0, info
    if passes(delta_hi):
        return float(delta_hi), info
    return float(bisect_boundary(passes, 0.0, delta_hi, tol)), info
