"""Sound branch-and-bound verification of the robust certificate conditions.

Two checks: the initial-set cap V <= beta, and the robust decrease condition
over the delta-inflated next-state ball. V >= alpha on the unsafe set needs
none: unsafe states take unsafe_mask, which ClbfParams holds >= alpha. The
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
centres and the iterates of a sign ascent on the nominal violation
epsilon - V(x) + V(f(x, pi(x))) as they are made, and stops at the first
point set with a witness. The ascent only chooses where to look: the
delta-ball is searched once per point set, by the exact check, and the
ascent step and the exact check share one evaluation of a set.

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
    hunted_rows: int = 0  # decrease: points checked exactly by the hunt
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


@dataclass
class BnbConfig:
    max_boxes: int = 2_000_000
    min_width: float = 1e-4  # per-dimension refinement floor
    ce_limit: int = 1        # stop after this many exact counterexamples
    chunk: int = 4096        # boxes per vectorised round
    inner_pgd: PgdConfig = field(default_factory=lambda: PgdConfig(steps=20, restarts=2))
    outer_pgd_steps: int = 5  # sign-ascent steps on x inside a failed box
    seed: int = 0

    def validate(self):
        if self.max_boxes < 1:
            raise ValueError("max_boxes must be >= 1")
        if self.ce_limit < 1:
            raise ValueError("ce_limit must be >= 1")
        if self.chunk < 1:
            raise ValueError("chunk must be >= 1")
        if np.any(np.asarray(self.min_width) <= 0):
            raise ValueError("min_width must be positive")
        if self.outer_pgd_steps < 0:
            raise ValueError("outer_pgd_steps must be >= 0")
        self.inner_pgd.validate()
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
    boxes, bisects those wider than cfg.min_width along their widest such
    side and tests the halves. It hunts only the failed boxes that cannot be
    split or have a failing half, takes witnesses up to cfg.ce_limit and
    drops the box of each one taken. The halves of the other splittable
    failed boxes are queued; the failed boxes that cannot be split, and the
    queue left at a stop, are Unknown residue, kept as (lo, hi) arrays in
    the order they are left.
    """
    def tested(lo, hi):
        """The boxes with their box test, run on cfg.chunk boxes at a time."""
        fail = [fails(lo[s:s + cfg.chunk], hi[s:s + cfg.chunk])
                for s in range(0, lo.shape[0], cfg.chunk)]
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
        if lo.shape[0] > cfg.chunk:
            queue.appendleft((lo[cfg.chunk:], hi[cfg.chunk:], fail[cfg.chunk:]))
            lo, hi, fail = lo[:cfg.chunk], hi[:cfg.chunk], fail[:cfg.chunk]
        processed += lo.shape[0]
        rounds += 1
        lo, hi = _lex_sorted(lo[fail], hi[fail])
        splittable = (hi - lo) > cfg.min_width
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

    residue.extend((lo, hi) for lo, hi, _ in queue)
    u_lo, u_hi = (np.concatenate(a) for a in zip(*residue))
    status = "counterexample" if witnesses else "unknown" if len(u_lo) else "proved"
    total_vol = sum(volumes(r_lo, r_hi).tolist())
    return Verdict(status, condition, witnesses=witnesses, unknown_lo=u_lo, unknown_hi=u_hi,
                   unknown_volume_fraction=_vol_fraction(u_lo, u_hi, total_vol),
                   boxes_processed=processed)


def _vol_fraction(lo, hi, total_vol):
    """Share of total_vol in the boxes with (k, n) corners lo and hi, bit for
    bit the built-in sum of their Box.volume."""
    if total_vol <= 0:
        return 0.0
    return min(1.0, sum(volumes(lo, hi).tolist()) / total_vol)


# ---------------------------------------------------------------------------
# initial-set check


def check_init(cert: FilteredCertificate, env: EnvSpec,
               cfg: BnbConfig | None = None) -> Verdict:
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

    return _branch_and_bound(list(env.init_boxes), cfg, "init", fails, hunt)


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
    upper bound over the inflated interval image must reach epsilon.
    """
    check_delta(delta)
    cfg = (cfg or BnbConfig()).validate()
    p = cert.params
    hunted_rows = pgd_rows = 0

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
        found, hunted, pgd = _hunt_decrease_ce(cert, policy, env, lo, hi,
                                               delta, epsilon, cfg, rng)
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
    box, then, since the ball may exit the tiled region (e.g. beyond the
    verification domain), its centre with coordinate d pushed to lo[d] or
    hi[d], for each d in turn."""
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


def _hunt_decrease_ce(cert, policy, env, lo, hi, delta, epsilon, cfg, rng):
    """Exact counterexample search inside failed boxes: the box centers, then
    the iterates of a short sign ascent on the nominal violation. Each point
    set is checked as it is made and the hunt stops at the first set with a
    witness. Returns ([(row_index, Witness)] by ascending row, points checked
    exactly, points of them passed to the inner PGD)."""
    if lo.shape[0] == 0:
        return [], 0, 0
    hunted = pgd = 0
    # sign ascent on g(x) = eps - V(x) + V(f(x, pi(x))), the violation at
    # delta = 0; the delta-ball is searched only by the exact check. The
    # ascent step and the check share one evaluation of each point set (V at
    # the next states too); the last set needs no gradient
    x = 0.5 * (lo + hi)
    step = (hi - lo) / (2.0 * max(1, cfg.outer_pgd_steps))
    for k in range(cfg.outer_pgd_steps + 1):
        last = k == cfg.outer_pgd_steps
        if last:
            nxt = env.step(x, forward_batch(policy, x))  # step clamps the control
            raw_x, v_nxt = cert.raw(x), cert.value(nxt)
        else:
            nxt, raw_x, v_nxt, g = _violation_grad(cert, policy, env, x)
        viol, ball_pts, pgd_rows = _exact_violation(
            cert, env, x, nxt, raw_x, v_nxt, delta, epsilon, cfg.inner_pgd, rng)
        hunted += x.shape[0]
        pgd += pgd_rows
        found = []
        for i in np.flatnonzero(viol >= WITNESS_SLACK):
            w = Witness(x[i].copy(), "decrease", float(viol[i]), ball_pts[i].copy())
            if _recheck_decrease(cert, policy, env, w, delta, epsilon):
                found.append((int(i), w))
        if found or last:
            return found, hunted, pgd
        x = np.clip(x + step * np.sign(g), lo, hi)


def _exact_violation(cert, env, X, nxt, raw_x, v_nxt, delta, epsilon, inner_pgd,
                     rng):
    """Exact violation of the robust decrease condition at states X, given
    their next states nxt, their raw values raw_x and the filtered values
    v_nxt at nxt, with the ball points realizing it and the number of rows
    sent to PGD.

    Ineligible rows (inside goal, filtered value above beta) report -inf.
    For delta > 0 the inner search runs only on the rows that
    certificate.decrease_may_fail passes, the screen that adversarial
    training shares: PGD's best iterate and the unsafe mask are both values
    at ball points, so neither exceeds the ball's interval upper bound ub,
    and a row with epsilon - (V(x) - ub) < 0 cannot reach WITNESS_SLACK (a
    margin far above the rounding error of ub). Such rows skip PGD and keep
    the value at their ball center, which leaves every witness unchanged.
    """
    p = cert.params
    v_x, _ = cert.apply_masks(X, raw_x)
    eligible = ~env.in_goal(X) & (v_x <= p.beta)
    active = (decrease_may_fail(cert, eligible, v_x, nxt, delta, epsilon)
              if delta > 0 else eligible)
    best_v, best_y = ball_max(cert, nxt, v_nxt, delta, inner_pgd, rng, active)
    viol = epsilon - (v_x - best_v)
    viol = np.where(eligible, viol, -np.inf)
    return viol, best_y, int(np.count_nonzero(active)) if delta > 0 else 0


def _violation_grad(cert, policy, env, X):
    """The next states nxt = f(X, pi(X)), the raw values V(X), the filtered
    values V(nxt), and the gradient w.r.t. x of the nominal violation
    eps - V(x) + V(f(x, pi(x))) at X. V(nxt) contributes only where the raw
    network applies; on the masked sets it is constant."""
    u, J_pi = input_jacobian(policy, X)
    nxt = env.step(X, u)  # step clamps the control
    raw_x, J_x = input_jacobian(cert.net, X)
    raw_y, J_y = input_jacobian(cert.net, nxt)
    v_nxt, unmasked = cert.apply_masks(nxt, raw_y[:, 0])
    gVy = J_y[:, 0] * unmasked[:, None]
    A, B = env.step_jac(X, u)
    g = -J_x[:, 0] + np.einsum("kij,ki->kj", A, gVy)
    gu = np.einsum("kij,ki->kj", B, gVy)
    return nxt, raw_x[:, 0], v_nxt, g + np.einsum("kmj,km->kj", J_pi, gu)


def _recheck_decrease(cert, policy, env, w: Witness, delta, epsilon) -> bool:
    """Witness contract: exact re-evaluation confirms the violation."""
    x = w.state[None]
    v_x = cert.value(x)[0]
    if env.in_goal(x)[0] or v_x > cert.params.beta:
        return False
    nxt = env.step(x, forward_batch(policy, x))[0]
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


def certify_delta(cert: FilteredCertificate, policy: Mlp, env: EnvSpec,
                  cfg: BnbConfig | None = None, delta_hi: float = 0.05,
                  tol: float = 1e-4, epsilon: float = 1e-6):
    """Binary search for the largest verified perturbation radius.

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
    init_v = check_init(cert, env, cfg)
    info = {"init": init_v, "history": []}
    if not init_v.proved:
        info["reason"] = "precondition failed (init)"
        return 0.0, info

    def passes(delta):
        v = check_robust_decrease(cert, policy, env, delta, epsilon, cfg)
        info["history"].append((delta, v.status))
        return v.proved

    if not passes(0.0):
        info["reason"] = "decrease condition fails at delta=0"
        return 0.0, info
    if passes(delta_hi):
        return float(delta_hi), info
    return float(bisect_boundary(passes, 0.0, delta_hi, tol)), info
