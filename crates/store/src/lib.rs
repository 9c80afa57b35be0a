//! Storage components: a three-layer crash-safe store stack.
//!
//! The paper names "shared caches" among the "certified kernel components
//! … shared between multiple non-cooperating users" (section 4) — the
//! canonical example of a component that *must* be trusted rather than
//! sandboxed, because it holds other users' data in its hands. This
//! crate grows that example into a full storage stack in which every
//! layer is such a component, stacked by the paper's signature idiom:
//! transparent interposition through a shared named interface.
//!
//! ```text
//! clients → [cache] → [journal] → driver → disk device
//! ```
//!
//! - [`driver`] — the disk driver object over the machine's
//!   sector-addressed disk, with per-sector transfer costs, amortised
//!   batch charging, and crash-injection-aware write paths (a simulated
//!   power failure mid-batch leaves a torn sector behind),
//! - [`journal`] — a write-ahead journal: checksummed, epoch-tagged log
//!   records in a reserved disk region, leader/rider group commit,
//!   atomic multi-sector transactions, and idempotent mount-time
//!   recovery with committed-prefix semantics,
//! - [`cache`] — a sharded write-back LRU block cache: O(1) intrusive
//!   LRU per shard, zero-copy hits, coalesced sector-sorted writeback,
//!   per-shard locking for concurrent clients,
//! - [`stack`] — [`StackBuilder`], the one way to assemble the layers
//!   (each optional, fixed order),
//! - [`vectored`] — the shared codec for vectorized `blockdev`
//!   arguments.
//!
//! # The `blockdev` interface
//!
//! Every layer exports the same interface, which is what lets any of
//! them interpose on any other; a layer forwards every method it does
//! not reimplement to the layer below. The name fixes the signatures:
//! [`vectored::BLOCKDEV`] declares them once, and a swap onto a
//! `blockdev` that differs is refused. Each layer has one read path and
//! one write path; `write`, `write_many` and `commit` are three ways to
//! hand it a batch. The full method set:
//!
//! | method | signature | semantics |
//! |---|---|---|
//! | `read_many` | `(sectors: list[int]) -> list[bytes]` | one batched request, results in request order |
//! | `write_many` | `(pairs: list[int, bytes, int, bytes, …]) -> int` | one batched request, one flat list; atomic under a journal |
//! | `read` | `(sector: int) -> bytes` | derived: `read_many` of one sector |
//! | `write` | `(sector: int, data: bytes) -> unit` | derived: `write_many` of one pair; durable-by-return under a journal |
//! | `commit` | `(pairs: list[int, bytes, int, bytes, …]) -> int` | `write_many` that promises the batch atomic and durable by return: crash-atomic under a journal, and written through a cache |
//! | `sectors` | `() -> int` | client-visible device size |
//! | `write_limit` | `() -> int` | largest `write_many` batch accepted as one request: the journal's transaction capacity, forwarded by the layers above it; the bare driver answers `i64::MAX` (it applies a batch of any size in one request) |
//! | `stats` | `() -> list` | the bottom driver's [`DriverStats`](driver::DriverStats) |
//! | `flush` | `() -> int` | push all volatile/logged state to home locations (cache writeback, journal checkpoint); returns sectors homed |
//! | `barrier` | `() -> unit` | ordering point: everything acknowledged before the call is durable when it returns |
//!
//! A layer writes one read body and one write body, and
//! `vectored::blockdev_methods` derives all five data-path methods from
//! them. The contract: **a scalar call is observably a burst of one** —
//! the same answer or error, charges and stats — and a malformed burst
//! is rejected whole, before any of it is applied.
//!
//! A transaction is one `commit` call that carries its whole batch, built
//! on the client's side: no layer holds a transaction open. Only the
//! journal makes it atomic against power failure; the bare driver's is
//! atomic against validation errors only, and the cache commits by
//! write-through: the caller's list, un-split, as one `write_many` to the
//! layer below, as atomic as that layer makes it. Through a write-back
//! cache, `commit` and `flush` are the only writes durable by return.
//! Encode/decode the arguments with [`vectored`]'s typed helpers — no
//! hand-rolled packing at call sites. A layer reads a `write_many` batch
//! in place ([`vectored::view_pairs`]): the list a client built is the
//! list the driver copies to the platter from.

#![forbid(unsafe_code)]

pub mod cache;
pub mod driver;
pub mod journal;
pub mod retry;
pub mod stack;
pub mod vectored;

pub use journal::{mount_journal, JournalConfig};
pub use retry::{make_retry, RetryConfig};
pub use stack::{StackBuilder, StoreStack};
