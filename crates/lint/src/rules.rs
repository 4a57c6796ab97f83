//! The rule catalogue. One id per enforced invariant; `docs/DETERMINISM.md`
//! carries the long-form rationale.

/// Wall-clock reads (`Instant::now`, `SystemTime`) outside `crates/bench`
/// and test code. Simulated time comes from the engine; a wall-clock read
/// in the sim path would make schedules host-dependent.
pub const WALL_CLOCK: &str = "wall-clock";

/// Ambient/global RNG (`thread_rng`, `rand::random`, OS entropy). All
/// randomness must flow from the master seed via `Ctx::rng()` or a
/// `DetRng::derive*` stream.
pub const AMBIENT_RNG: &str = "ambient-rng";

/// Iterating a `HashMap`/`HashSet`/`FxHashMap`/`FxHashSet` in non-test
/// code without feeding a sort or an order-insensitive reduction. Hash
/// iteration order is arbitrary; letting it reach behaviour is how
/// nondeterminism sneaks past the seed.
pub const UNORDERED_ITER: &str = "unordered-iter";

/// Shared-state primitives (`static mut`, `Mutex`, `RwLock`, `RefCell`)
/// in actor crates. Actors communicate only through the engine; shared
/// mutable state bypasses the deterministic dispatch order.
pub const ACTOR_ISOLATION: &str = "actor-isolation";

/// Accumulating floats out of an unordered container. Float addition is
/// not associative, so even a "harmless" sum over hash iteration order
/// produces run-to-run drift in the low bits.
pub const FLOAT_ACCUM: &str = "float-accum";

/// A panic site (`unwrap`/`expect`/panicking macro/indexing-by-variable/
/// integer division by variable) reachable from an `Actor` handler in an
/// actor crate. A panic on a handler path aborts the whole sim — under
/// fault injection that turns "degraded" into "crashed".
pub const PANIC_PATH: &str = "panic-path";

/// Metrics key hygiene: every key recorded in non-test code must appear
/// in `crates/simcore/src/metrics_keys.rs`, and every registered key must
/// be recorded somewhere. The registry is the observability schema.
pub const METRIC_KEY: &str = "metric-key";

/// An allow directive that suppressed nothing. Stale allows are how
/// scoped exemptions decay into blanket ones.
pub const UNUSED_ALLOW: &str = "unused-allow";

/// An allow directive that does not parse (unknown rule, missing reason).
pub const ALLOW_SYNTAX: &str = "allow-syntax";

/// Every rule id, for `--help` output and allow validation.
pub const ALL: &[&str] = &[
    WALL_CLOCK,
    AMBIENT_RNG,
    UNORDERED_ITER,
    ACTOR_ISOLATION,
    FLOAT_ACCUM,
    PANIC_PATH,
    METRIC_KEY,
    UNUSED_ALLOW,
    ALLOW_SYNTAX,
];

/// True when `id` names a rule an allow directive may suppress.
/// (`unused-allow` / `allow-syntax` police the directives themselves and
/// cannot be allowed away.)
pub fn is_known(id: &str) -> bool {
    id == WALL_CLOCK
        || id == AMBIENT_RNG
        || id == UNORDERED_ITER
        || id == ACTOR_ISOLATION
        || id == FLOAT_ACCUM
        || id == PANIC_PATH
        || id == METRIC_KEY
}

/// One-line description per rule (the `--rules` listing).
pub fn describe(id: &str) -> &'static str {
    match id {
        _ if id == WALL_CLOCK => {
            "wall-clock reads (Instant::now / SystemTime) outside crates/bench and test code"
        }
        _ if id == AMBIENT_RNG => {
            "ambient RNG (thread_rng / rand::random / OS entropy) anywhere; use Ctx::rng() or a DetRng stream"
        }
        _ if id == UNORDERED_ITER => {
            "hash-container iteration in non-test code that neither feeds a sort nor an order-insensitive reduction"
        }
        _ if id == ACTOR_ISOLATION => {
            "static mut, or Mutex/RwLock/RefCell shared state inside actor crates"
        }
        _ if id == FLOAT_ACCUM => "float accumulation over unordered-container iteration",
        _ if id == PANIC_PATH => {
            "panic site (unwrap/expect/panic!/index-by-variable/int-div-by-variable) reachable from an Actor handler in an actor crate"
        }
        _ if id == METRIC_KEY => {
            "metric key recorded but not registered in crates/simcore/src/metrics_keys.rs, or registered but never recorded"
        }
        _ if id == UNUSED_ALLOW => "allow directive that suppressed no finding",
        _ if id == ALLOW_SYNTAX => "allow directive that does not parse",
        _ => "unknown rule",
    }
}
