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
//! - [`vectored`] — the shared codec for vectorized and transactional
//!   `blockdev` arguments.
//!
//! # The `blockdev` interface
//!
//! Every layer exports the same interface, which is what lets any of
//! them interpose on any other; a layer forwards every method it does
//! not reimplement to the layer below. Each layer has one write path;
//! `write`, `write_many` and `commit` are three ways to hand it a batch.
//! The full method set:
//!
//! | method | signature | semantics |
//! |---|---|---|
//! | `read` | `(sector: int) -> bytes` | one 512-byte sector |
//! | `write` | `(sector: int, data: bytes) -> unit` | one sector; durable-by-return under a journal |
//! | `read_many` | `(sectors: list[int]) -> list[bytes]` | one batched request, results in request order |
//! | `write_many` | `(pairs: list[int, bytes, int, bytes, …]) -> int` | one batched request, one flat list, validated whole before any of it is applied; atomic under a journal |
//! | `sectors` | `() -> int` | client-visible device size |
//! | `write_limit` | `() -> int` | largest `write_many` batch accepted as one atomic unit (answered by the journal and forwarded by the layers above it; a stack without a journal has no such method and is unbounded) |
//! | `stats` | `() -> list` | `[reads, writes]` of the bottom driver |
//! | `flush` | `() -> int` | push all volatile/logged state to home locations (cache writeback, journal checkpoint); returns sectors homed |
//! | `barrier` | `() -> unit` | ordering point: everything acknowledged before the call is durable when it returns |
//! | `begin_txn` | `() -> int` | open a transaction, returning its handle |
//! | `txn_write` | `(txn: int, sector: int, data: bytes) -> unit` | buffer one write into an open transaction |
//! | `commit` | `(txn: int) -> unit` | apply the transaction atomically (crash-atomic under a journal) |
//! | `abort` | `(txn: int) -> unit` | drop an open transaction without effects |
//!
//! Only the journal makes `commit` atomic against power failure; the
//! bare driver's transactions are volatile buffers (atomic against
//! validation errors only) and the cache commits by write-through: one
//! un-split `write_many` to the layer below, as atomic as that layer
//! makes it. Each layer holds at most [`vectored::MAX_OPEN_TXNS`] open
//! transactions.
//! Encode/decode the arguments with [`vectored`]'s typed helpers — no
//! hand-rolled packing at call sites. A layer reads a `write_many` batch
//! in place ([`vectored::view_pairs`]): the list a client built is the
//! list the driver copies to the platter from.

pub mod cache;
pub mod driver;
pub mod journal;
pub mod retry;
pub mod stack;
pub mod vectored;

pub use journal::{mount_journal, JournalConfig};
pub use retry::{make_retry, RetryConfig};
pub use stack::{StackBuilder, StoreStack};
