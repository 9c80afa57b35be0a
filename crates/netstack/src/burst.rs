//! The burst pair of `netdev`, and the scalar calls derived from it.
//!
//! A frame crosses several objects between the TCP pump and the wire, so
//! the primitive of the data path is the burst: `send_many(frames: list)`
//! and `recv_many(max: int) -> list`. A `netdev` exporter writes one
//! transmit body and one receive body and [`netdev_methods`] installs all
//! four methods from them — `send(f)` is the transmit body over a burst
//! of one, `recv()` the receive body asked for one frame — so no layer
//! keeps a second, hand-written data path. The contract every layer
//! holds to: **a burst of n is observably n scalar calls in the same
//! order** (`recv_many(max)` being `recv` until it answers empty or `max`
//! frames are in hand), and a malformed burst is rejected whole, before
//! any of it is applied.
//!
//! [`Drain`] is the other half: how a layer or an endpoint pulls from
//! the `netdev` below it in bursts without losing, on an error, the
//! frames behind the one it failed on.

use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use paramecium_obj::{InterfaceBuilder, MethodSig, ObjError, ObjRef, ObjResult, TypeTag, Value};

/// Most frames pulled from a lower `netdev` in one call.
const RX_BURST: usize = 64;

/// The frames in a `netdev` data-path argument or result: the elements
/// of a burst's list, or the one value of the scalar call.
pub fn frames(v: &Value) -> impl Iterator<Item = &Bytes> {
    let items = match v {
        Value::List(l) => l.as_slice(),
        one => std::slice::from_ref(one),
    };
    items.iter().filter_map(|f| f.as_bytes().ok())
}

/// What one transmit call carries: `send`'s frame or `send_many`'s list,
/// already checked to hold nothing but `bytes`.
pub struct Tx<'a> {
    method: &'static str,
    args: &'a [Value],
}

impl Tx<'_> {
    /// The frames in order, read where the caller holds them.
    pub fn frames(&self) -> impl Iterator<Item = &Bytes> {
        frames(&self.args[0])
    }

    /// Hands the caller's own argument to `lower` as it arrived: a layer
    /// with nothing to change in a burst adds no list of its own.
    pub fn forward(&self, lower: &ObjRef) -> ObjResult<()> {
        lower.invoke("netdev", self.method, self.args).map(drop)
    }
}

/// Sends `frames` down as one burst — no call at all for none. Once sent
/// the list comes back emptied, so a caller that keeps it pays for its
/// buffer once; a burst the lower refuses is left in it.
pub fn send_many(lower: &ObjRef, frames: &mut Vec<Value>) -> ObjResult<()> {
    if frames.is_empty() {
        return Ok(());
    }
    let burst = [Value::List(std::mem::take(frames))];
    let sent = lower.invoke("netdev", "send_many", &burst);
    if let [Value::List(list)] = burst {
        *frames = list;
    }
    if sent.is_ok() {
        frames.clear();
    }
    sent.map(drop)
}

/// The `netdev` interface, sorted by name: its only declaration. Every
/// layer exports exactly this set; `pending` counts the frames a `recv`
/// would find, `stats` is the device's counter block.
pub const NETDEV: &[MethodSig] = &[
    MethodSig::new("pending", &[], TypeTag::Int),
    MethodSig::new("recv", &[], TypeTag::Bytes),
    MethodSig::new("recv_many", &[TypeTag::Int], TypeTag::List),
    MethodSig::new("send", &[TypeTag::Bytes], TypeTag::Unit),
    MethodSig::new("send_many", &[TypeTag::List], TypeTag::Unit),
    MethodSig::new("stats", &[], TypeTag::List),
];

/// Starts a layer's `netdev` ([`NETDEV`]) with `send_many` / `recv_many`
/// and the `send` / `recv` derived from them. `tx` applies a whole,
/// validated burst; `rx` appends up to `max` frames to a list that is
/// empty when it is called, and on an error keeps whatever it had pulled
/// (see `Drain::unread`) rather than leave it in the list.
pub fn netdev_methods<T, R>(tx: T, rx: R) -> InterfaceBuilder
where
    T: Fn(&ObjRef, Tx<'_>) -> ObjResult<()> + Send + Sync + 'static,
    R: Fn(&ObjRef, usize, &mut Vec<Value>) -> ObjResult<()> + Send + Sync + 'static,
{
    let mut i = InterfaceBuilder::declared("netdev", NETDEV);
    let (tx, rx) = (Arc::new(tx), Arc::new(rx));
    let rx_one = rx.clone();
    // The scalar `recv`'s list of one, kept between calls so that it
    // costs no more heap traffic than the frame it carries.
    let spare = Mutex::new(Vec::new());
    for method in ["send", "send_many"] {
        let tx = tx.clone();
        i = i.provide(method, move |this, args| {
            if let Value::List(burst) = &args[0] {
                burst.iter().try_for_each(|f| f.as_bytes().map(drop))?;
            }
            tx(this, Tx { method, args }).map(|()| Value::Unit)
        });
    }
    i.provide("recv_many", move |this, args| {
        let max = args[0].as_int_in::<usize>()?;
        let mut out = Vec::new();
        rx(this, max, &mut out)?;
        Ok(Value::List(out))
    })
    .provide("recv", move |this, _| {
        let mut out = spare.lock();
        out.clear();
        let pulled = rx_one(this, 1, &mut out);
        let frame = out.pop().unwrap_or_else(|| Value::Bytes(Bytes::new()));
        pulled.map(|()| frame)
    })
}

/// Frames pulled from a lower `netdev` a burst at a time.
///
/// Whoever works through them may fail on the k-th; the rest stay here,
/// are served first by the next call and count in [`Drain::held`], so an
/// error loses no frame the scalar path would have left in the device.
#[derive(Default)]
pub struct Drain {
    held: std::vec::IntoIter<Value>,
    /// The last burst came back short: the lower has nothing more for
    /// the call in progress.
    dry: bool,
}

impl Drain {
    /// Starts a call: what the last one learnt about the lower running
    /// dry no longer holds.
    pub fn begin(&mut self) {
        self.dry = false;
    }

    /// What is held, after pulling a new burst of at most `room` frames
    /// if nothing was: empty once a burst has come back short, until the
    /// next [`Drain::begin`].
    pub fn peek(&mut self, lower: &ObjRef, room: usize) -> ObjResult<&[Value]> {
        let want = room.min(RX_BURST);
        if self.held.len() == 0 && !self.dry && want > 0 {
            let burst = lower.invoke("netdev", "recv_many", &[Value::Int(want as i64)])?;
            let Value::List(burst) = burst else {
                return Err(ObjError::type_mismatch(TypeTag::List, burst.tag()));
            };
            self.dry = burst.len() < want;
            self.held = burst.into_iter();
        }
        Ok(self.held.as_slice())
    }

    /// The next frame: the first of what [`Drain::peek`] shows.
    pub fn next(&mut self, lower: &ObjRef, room: usize) -> ObjResult<Option<Bytes>> {
        self.peek(lower, room)?;
        match self.held.next() {
            Some(Value::Bytes(frame)) => Ok(Some(frame)),
            Some(other) => Err(ObjError::type_mismatch(TypeTag::Bytes, other.tag())),
            None => Ok(None),
        }
    }

    /// Everything held, as the list it arrived in: how a layer with
    /// nothing to take out of a burst passes it up untouched.
    pub fn take(&mut self) -> Vec<Value> {
        std::mem::take(&mut self.held).collect()
    }

    /// Frames pulled and not yet handed out.
    pub fn held(&self) -> usize {
        self.held.len()
    }

    /// Nothing held and nothing more to pull in this call.
    pub(crate) fn is_dry(&self) -> bool {
        self.dry && self.held.len() == 0
    }

    /// Takes back frames already moved to `out`, in front of what is
    /// held: how a layer that fails mid-burst keeps what it had pulled.
    pub(crate) fn unread(&mut self, out: &mut Vec<Value>) {
        out.extend(self.held.by_ref());
        self.held = std::mem::take(out).into_iter();
    }
}

/// Scripted fakes for the layers' error-path tests.
#[cfg(test)]
pub(crate) mod fakes {
    use super::*;
    use paramecium_obj::{delegate_interface, ObjectBuilder};
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Which directions of a [`fuse`] refuse service right now.
    #[derive(Default)]
    pub struct Blown {
        pub tx: AtomicBool,
        pub rx: AtomicBool,
    }

    /// A `netdev` that passes everything to `inner` — until a direction
    /// is blown, when that direction fails with "link down".
    pub(crate) fn fuse(inner: ObjRef, blown: Arc<Blown>) -> ObjRef {
        let down = || Err(ObjError::failed("link down"));
        let (tx_inner, tx_blown) = (inner.clone(), blown.clone());
        let rx_inner = inner.clone();
        let netdev = netdev_methods(
            move |_, tx| match tx_blown.tx.load(Ordering::Relaxed) {
                true => down(),
                false => tx.forward(&tx_inner),
            },
            move |_, max, out| {
                if blown.rx.load(Ordering::Relaxed) {
                    return down();
                }
                let max = Value::Int(max as i64);
                let got = rx_inner.invoke("netdev", "recv_many", &[max])?;
                out.extend(got.as_list()?.iter().cloned());
                Ok(())
            },
        );
        ObjectBuilder::new("fuse")
            .raw_interface(delegate_interface(netdev.finish(), inner))
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::fakes::{fuse, Blown};
    use super::*;
    use crate::simlink::{make_simlink, LinkConfig, LinkStats};
    use paramecium_machine::Machine;
    use std::sync::atomic::Ordering;

    fn frame(tag: u8) -> Value {
        Value::Bytes(Bytes::from(vec![tag; 60]))
    }

    #[test]
    fn a_malformed_burst_is_rejected_before_the_layer_sees_any_of_it() {
        let machine = Arc::new(Mutex::new(Machine::new()));
        let (a, b) = make_simlink(machine.clone(), LinkConfig::perfect(1));
        let mixed = Value::List(vec![frame(1), Value::Int(2), frame(3)]);
        assert!(a.invoke("netdev", "send_many", &[mixed]).is_err());
        assert!(b.invoke("netdev", "recv_many", &[Value::Int(-1)]).is_err());
        let stats = a.invoke("netdev", "stats", &[]).unwrap();
        assert_eq!(
            LinkStats::from_value(&stats).unwrap().sent,
            0,
            "nothing sent"
        );
    }

    #[test]
    fn drain_serves_what_a_failed_call_left_before_pulling_again() {
        let machine = Arc::new(Mutex::new(Machine::new()));
        let (a, b) = make_simlink(machine.clone(), LinkConfig::perfect(1));
        let blown = Arc::new(Blown::default());
        let b = fuse(b, blown.clone());
        let sent: Vec<Value> = (0..5).map(frame).collect();
        a.invoke("netdev", "send_many", &[Value::List(sent)])
            .unwrap();
        machine.lock().tick(10);

        let mut drain = Drain::default();
        let tag = |f: Option<Bytes>| f.map(|f| f[0]);
        // A caller that gives up after two of the five pulled...
        drain.begin();
        assert_eq!(tag(drain.next(&b, usize::MAX).unwrap()), Some(0));
        assert_eq!(tag(drain.next(&b, usize::MAX).unwrap()), Some(1));
        assert_eq!(drain.held(), 3);
        // ...finds the other three next time, without touching the lower
        // (which would refuse), and in front of what it had handed out
        // but could not use.
        blown.rx.store(true, Ordering::Relaxed);
        let mut out = vec![frame(9)];
        drain.unread(&mut out);
        assert!(out.is_empty());
        drain.begin();
        for want in [9, 2, 3, 4] {
            assert_eq!(tag(drain.next(&b, usize::MAX).unwrap()), Some(want));
        }
        assert!(drain.next(&b, usize::MAX).is_err(), "now it has to pull");
        blown.rx.store(false, Ordering::Relaxed);
        assert_eq!(tag(drain.next(&b, usize::MAX).unwrap()), None);
        assert!(drain.is_dry());
    }
}
