//! Multi-process backend: ranks as processes around a Unix-socket hub.
//!
//! The hub hosts the threads backend's world — the same mailboxes, boards
//! and split registry behind the same [`Comm`] handles — in its own
//! process, so a rank dying does not take the world's rendezvous state
//! with it. Each rank connects once ([`SocketComm::connect`]) and speaks
//! a tiny length-prefixed frame protocol; the connection's dedicated hub
//! thread owns that rank's [`Comm`] handles and turns every frame into
//! the [`Communicator`] primitive it names, parking in `take`/`exchange`
//! on the rank's behalf. The two backends differ only in how a rank
//! reaches its world: a thread holds the handle, a process holds a socket
//! to the thread that does.
//!
//! A blocking operation (`recv`, `sendrecv`, a collective) is one frame up
//! and one down, `send` one frame up, and a frame one syscall at each end:
//! a `Conn` encodes it in place behind its length prefix and writes it in
//! one call, and reads through a buffer, so that prefix and body — and any
//! frames the peer wrote behind them — arrive in one.
//!
//! Failure detection is by connection EOF: a `kill -9`'d or disconnected
//! rank drops its socket (a rank that sends a malformed frame is treated
//! the same way), the hub marks the rank failed and — unless the
//! hub is *elastic* — poisons the world so every parked operation aborts
//! (the client sees a `POISONED` reply and panics with
//! [`PoisonedWorld`]). An elastic hub instead keeps the rank's mailbox
//! and board slots intact and waits for a replacement to reconnect with a
//! bumped incarnation number; survivors stay parked until the
//! replacement's replayed run catches up with the rendezvous.

use std::collections::{HashMap, HashSet};
use std::io::{self, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::{BufMut, Bytes};
use parking_lot::{Condvar, Mutex};

use crate::comm::{Comm, ElasticWorldStats, WorldShared};
use crate::communicator::Communicator;
use crate::failure::{PoisonedWorld, RankFault};
use crate::p2p::{Message, NetworkStats, Tag};

// Client → hub opcodes.
const OP_HELLO: u8 = 1;
const OP_SEND: u8 = 2;
const OP_RECV: u8 = 3;
const OP_TRYRECV: u8 = 4;
const OP_PROBE: u8 = 5;
const OP_EXCHANGE: u8 = 6;
const OP_SPLIT: u8 = 7;
const OP_STATS: u8 = 8;
const OP_STATUS: u8 = 9;
const OP_BYE: u8 = 10;
const OP_FAILSELF: u8 = 11;
const OP_BEAT: u8 = 12;
const OP_SENDRECV: u8 = 13;

// Hub → client opcodes.
const RE_WELCOME: u8 = 0x81;
const RE_MSG: u8 = 0x82;
const RE_NOMSG: u8 = 0x83;
const RE_BOOL: u8 = 0x84;
const RE_SNAP: u8 = 0x85;
const RE_COMMID: u8 = 0x86;
const RE_STATS: u8 = 0x87;
const RE_STATUS: u8 = 0x88;
const RE_POISONED: u8 = 0x8F;

/// Sentinel encoding `None` for optional source ranks on the wire.
const NO_SRC: u64 = u64::MAX;
/// Sentinel encoding `None` for optional tags on the wire.
const NO_TAG: i64 = i64::MIN;

// ----------------------------------------------------------------------
// Framing
// ----------------------------------------------------------------------

/// Largest frame body either end writes or accepts: a guard against a
/// corrupt length prefix, not a size real payloads come near.
const MAX_FRAME: usize = 64 << 20;

/// Refuses a `len`-byte body starting with `op` where it is encoded: the
/// peer would only refuse it, and fail the rank for it, once all of it
/// had crossed the socket.
fn check_cap(len: usize, op: u8) -> io::Result<()> {
    if len <= MAX_FRAME {
        return Ok(());
    }
    Err(io::Error::new(
        io::ErrorKind::InvalidInput,
        format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap (opcode {op:#04x})"),
    ))
}

/// One end of a connection and the buffers its frames reuse. A frame is a
/// little-endian `u32` length and that many body bytes, the first of them
/// the opcode. `S` is the bare stream: one call on it is one syscall.
#[derive(Debug)]
struct Conn<S> {
    /// Read side; writes go to the stream inside.
    reader: BufReader<S>,
    /// The frame being sent, prefix included.
    out: Vec<u8>,
    /// Body of the frame last received.
    body: Vec<u8>,
}

impl<S: Read + Write> Conn<S> {
    fn new(stream: S) -> Self {
        Conn {
            reader: BufReader::new(stream),
            out: Vec::new(),
            body: Vec::new(),
        }
    }

    /// Sends the frame whose body `encode` appends, in one `write`.
    fn send_frame(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
        self.out.clear();
        self.out.extend_from_slice(&[0; 4]);
        encode(&mut self.out);
        let len = self.out.len() - 4;
        check_cap(len, self.out.get(4).copied().unwrap_or(0))?;
        self.out[..4].copy_from_slice(&(len as u32).to_le_bytes());
        self.reader.get_mut().write_all(&self.out)
    }

    /// Receives one frame; its body stays valid until the next call.
    fn recv_frame(&mut self) -> io::Result<&[u8]> {
        let mut prefix = [0u8; 4];
        self.reader.read_exact(&mut prefix)?;
        let len = u32::from_le_bytes(prefix) as usize;
        if len > MAX_FRAME {
            return Err(malformed(format!("hostile frame length {len}")));
        }
        // The buffer grows with the bytes that arrive, not with what the
        // prefix claims: a lying prefix reserves nothing.
        self.body.clear();
        let mut body = self.reader.by_ref().take(len as u64);
        if body.read_to_end(&mut self.body)? < len {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        Ok(&self.body)
    }
}

/// Cursor over a received frame body.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn chunk(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "truncated frame",
            )),
        }
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.chunk(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.chunk(8)?.try_into().unwrap()))
    }

    fn i32(&mut self) -> io::Result<i32> {
        Ok(i32::from_le_bytes(self.chunk(4)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> io::Result<i64> {
        Ok(i64::from_le_bytes(self.chunk(8)?.try_into().unwrap()))
    }

    fn bytes(&mut self) -> io::Result<Bytes> {
        let len = self.u32()? as usize;
        Ok(Bytes::copy_from_slice(self.chunk(len)?))
    }

    /// The inverse of [`put_msg`], on communicator `comm_id`.
    fn msg(&mut self, comm_id: u64) -> io::Result<Message> {
        Ok(Message {
            src: self.u32()? as usize,
            tag: self.i32()?,
            comm_id,
            data: self.bytes()?,
        })
    }

    /// The inverse of [`put_filter`].
    fn filter(&mut self) -> io::Result<Filter> {
        let src = self.u64()?;
        let tag = match self.i64()? {
            NO_TAG => None,
            t => Some(Tag::try_from(t).map_err(|_| malformed(format!("tag {t} out of range")))?),
        };
        Ok(((src != NO_SRC).then_some(src as usize), tag))
    }

    /// Reads an element count and validates it against the bytes left in
    /// the frame (each element occupies at least `min_elem` of them), so
    /// the caller may allocate for it: a count the frame cannot back is
    /// rejected before any allocation.
    fn count(&mut self, min_elem: usize) -> io::Result<usize> {
        let n = self.u32()? as usize;
        if n > (self.buf.len() - self.pos) / min_elem {
            return Err(malformed(format!("count {n} exceeds the frame")));
        }
        Ok(n)
    }
}

fn malformed(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// A message as SEND, SENDRECV and the `MSG` reply carry it: sender, tag,
/// length-prefixed payload.
fn put_msg(out: &mut Vec<u8>, msg: &Message) {
    out.put_u32_le(msg.src as u32);
    out.put_i32_le(msg.tag);
    put_bytes(out, &msg.data);
}

/// The inverse of [`Reader::bytes`].
fn put_bytes(out: &mut Vec<u8>, data: &[u8]) {
    out.put_u32_le(data.len() as u32);
    out.put_slice(data);
}

/// The body of the HELLO frame a connection opens with.
fn put_hello(out: &mut Vec<u8>, rank: usize, size: usize, incarnation: u64) {
    out.put_u8(OP_HELLO);
    out.put_u32_le(rank as u32);
    out.put_u32_le(size as u32);
    out.put_u64_le(incarnation);
}

/// A [`Filter`] on the wire: wildcards as the two sentinels.
fn put_filter(out: &mut Vec<u8>, (src, tag): Filter) {
    out.put_u64_le(src.map_or(NO_SRC, |s| s as u64));
    out.put_i64_le(tag.map_or(NO_TAG, i64::from));
}

// ----------------------------------------------------------------------
// Hub
// ----------------------------------------------------------------------

/// Counters reported by [`Hub::serve`] once the world completed; a
/// failure is a connection EOF, a malformed frame, or heartbeat staleness.
pub type HubStats = ElasticWorldStats;

type CommKey = (u64, u64, i64);

/// What a matching request matches: `(src, tag)`, `None` a wildcard.
type Filter = (Option<usize>, Option<Tag>);

/// What the hub adds to the world it hosts: which ranks completed, and
/// how many replacements it admitted.
#[derive(Debug)]
struct HubState {
    world: Arc<WorldShared>,
    /// Ranks that completed cleanly (sent BYE).
    done: Mutex<HashSet<usize>>,
    done_cv: Condvar,
    replaced: AtomicU64,
}

/// The rendezvous hub of a multi-process world.
pub struct Hub;

impl Hub {
    /// Binds `path` and serves a world of `size` ranks until every rank
    /// said goodbye (elastic worlds: until every rank *slot* completed,
    /// possibly via a replacement incarnation) or the world poisoned.
    /// Returns the failure counters.
    pub fn serve(path: &Path, size: usize, elastic: bool) -> io::Result<HubStats> {
        let state = HubState {
            world: WorldShared::new(size, elastic),
            done: Mutex::new(HashSet::new()),
            done_cv: Condvar::new(),
            replaced: AtomicU64::new(0),
        };
        // `bind` names the socket before `listen` makes it connectable, and
        // callers wait for `path` to appear: bind beside it and rename, so
        // that whoever sees `path` can connect.
        let mut staging = path.as_os_str().to_owned();
        staging.push(".bind");
        let _ = std::fs::remove_file(&staging);
        let listener = UnixListener::bind(&staging)?;
        std::fs::rename(&staging, path)?;
        listener.set_nonblocking(true)?;
        let stop = AtomicBool::new(false);
        let (state, stop, failure) = (&state, &stop, &state.world.failure);

        std::thread::scope(|s| {
            // Heartbeat monitor: only armed when a rank timeout is set.
            if let Some(budget) = failure.wait_budget() {
                s.spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        std::thread::sleep(budget / 2);
                        if failure.suspect_stall(usize::MAX).is_some() {
                            state.world.wake_world();
                            state.done_cv.notify_all();
                        }
                    }
                });
            }
            // Accept loop: polls so it can stop once the world is done.
            s.spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((conn, _)) => {
                            s.spawn(move || {
                                let _ = serve_connection(conn, state);
                            });
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        Err(_) => break,
                    }
                }
            });
            // Wait for completion: all ranks done, or world poisoned with
            // no survivors able to finish.
            {
                let mut done = state.done.lock();
                loop {
                    if done.len() == size {
                        break;
                    }
                    if failure.poisoned().is_some() {
                        // Poisoned: remaining ranks will abort, not BYE.
                        break;
                    }
                    state.done_cv.wait_for(&mut done, Duration::from_millis(50));
                }
            }
            stop.store(true, Ordering::SeqCst);
            state.world.wake_world();
        });
        let _ = std::fs::remove_file(path);
        Ok(HubStats {
            failures_detected: failure.detected(),
            ranks_replaced: state.replaced.load(Ordering::SeqCst),
        })
    }
}

/// A client → hub request; the wire format is [`Request::encode_into`]
/// and [`decode_request`], nothing else reads or writes it.
#[derive(Debug)]
enum Request {
    /// `(comm, dest, messages, then)`: deposit into local rank `dest`'s
    /// mailbox — SEND, one-way; with `then`, go on to take a message
    /// matching it from the sender's own and reply with that — SENDRECV.
    Send(u64, usize, Vec<Message>, Option<Filter>),
    /// `(op, comm, filter)`, `op` one of `OP_RECV`, `OP_TRYRECV`,
    /// `OP_PROBE`, on the sender's own mailbox.
    Match(u8, u64, Filter),
    /// `(comm, local rank, slots)`: one collective round.
    Exchange(u64, usize, Vec<Bytes>),
    /// `(key, members as world ranks)`: register a split communicator.
    Split(CommKey, Vec<usize>),
    Stats,
    Status,
    Bye,
    FailSelf,
    Beat,
}

impl Request {
    /// Appends the frame body a client sends for this request;
    /// [`decode_request`] is its inverse.
    fn encode_into(&self, f: &mut Vec<u8>) {
        match self {
            Request::Send(comm_id, dest, msgs, then) => {
                f.put_u8(if then.is_some() { OP_SENDRECV } else { OP_SEND });
                f.put_u64_le(*comm_id);
                f.put_u32_le(*dest as u32);
                if let Some(filter) = then {
                    put_filter(f, *filter);
                }
                f.put_u32_le(msgs.len() as u32);
                for msg in msgs {
                    put_msg(f, msg);
                }
            }
            Request::Match(op, comm_id, filter) => {
                f.put_u8(*op);
                f.put_u64_le(*comm_id);
                put_filter(f, *filter);
            }
            Request::Exchange(comm_id, local, mine) => {
                f.put_u8(OP_EXCHANGE);
                f.put_u64_le(*comm_id);
                f.put_u32_le(*local as u32);
                f.put_u32_le(mine.len() as u32);
                for slot in mine {
                    put_bytes(f, slot);
                }
            }
            Request::Split(key, members) => {
                f.put_u8(OP_SPLIT);
                f.put_u64_le(key.0);
                f.put_u64_le(key.1);
                f.put_i64_le(key.2);
                f.put_u32_le(members.len() as u32);
                for &m in members {
                    f.put_u32_le(m as u32);
                }
            }
            Request::Stats => f.put_u8(OP_STATS),
            Request::Status => f.put_u8(OP_STATUS),
            Request::Bye => f.put_u8(OP_BYE),
            Request::FailSelf => f.put_slice(&[OP_FAILSELF, 2]),
            Request::Beat => f.put_u8(OP_BEAT),
        }
    }
}

/// Decodes one post-HELLO frame. Pure: every byte string yields `Ok` or
/// `Err`, never a panic, and every element count is checked against the
/// bytes left in the frame before anything is allocated for it. Ranks
/// and communicator ids are checked by the caller, which has the world.
fn decode_request(frame: &[u8]) -> io::Result<Request> {
    let mut r = Reader::new(frame);
    let op = r.chunk(1)?[0];
    let req = match op {
        OP_SEND | OP_SENDRECV => {
            let comm_id = r.u64()?;
            let dest = r.u32()? as usize;
            let then = match op {
                OP_SENDRECV => Some(r.filter()?),
                _ => None,
            };
            // src + tag + payload length.
            let n = r.count(12)?;
            let mut msgs = Vec::with_capacity(n);
            for _ in 0..n {
                msgs.push(r.msg(comm_id)?);
            }
            Request::Send(comm_id, dest, msgs, then)
        }
        OP_RECV | OP_TRYRECV | OP_PROBE => Request::Match(op, r.u64()?, r.filter()?),
        OP_EXCHANGE => {
            let comm_id = r.u64()?;
            let local = r.u32()? as usize;
            let n = r.count(4)?;
            let mut mine = Vec::with_capacity(n);
            for _ in 0..n {
                mine.push(r.bytes()?);
            }
            Request::Exchange(comm_id, local, mine)
        }
        OP_SPLIT => {
            let key: CommKey = (r.u64()?, r.u64()?, r.i64()?);
            let n = r.count(4)?;
            let mut members = Vec::with_capacity(n);
            for _ in 0..n {
                members.push(r.u32()? as usize);
            }
            Request::Split(key, members)
        }
        OP_STATS => Request::Stats,
        OP_STATUS => Request::Status,
        OP_BYE => Request::Bye,
        OP_FAILSELF => {
            r.chunk(1)?; // fault kind, informational
            Request::FailSelf
        }
        OP_BEAT => Request::Beat,
        other => return Err(malformed(format!("unknown opcode {other}"))),
    };
    if r.pos != frame.len() {
        return Err(malformed(format!(
            "{} trailing bytes after opcode {op}",
            frame.len() - r.pos
        )));
    }
    Ok(req)
}

/// Services one rank connection until it ends. Only BYE completes a
/// rank: EOF, an I/O failure, FAILSELF and a malformed frame all mean
/// the rank is gone, and take the same `fail_rank` path so the hub never
/// waits for a BYE that will not come.
fn serve_connection(conn: UnixStream, state: &HubState) -> io::Result<()> {
    let mut conn = Conn::new(conn);
    let world = admit(&mut conn, state)?;
    let rank = world.rank();
    let ended = serve_rank(&mut conn, state, world);
    if !state.done.lock().contains(&rank) {
        state.world.fail_rank(rank);
        // Even a poisoned world must terminate serve(): wake it so it does
        // not wait for a BYE that will never come.
        state.done_cv.notify_all();
    }
    ended
}

/// HELLO handshake: validates the claimed rank against the world and
/// admits it (as a replacement if it failed before), returning the world
/// communicator handle this connection drives.
fn admit(conn: &mut Conn<UnixStream>, state: &HubState) -> io::Result<Comm> {
    let mut r = Reader::new(conn.recv_frame()?);
    if r.chunk(1)?[0] != OP_HELLO {
        return Err(malformed("expected HELLO".into()));
    }
    let rank = r.u32()? as usize;
    let size = r.u32()? as usize;
    let incarnation = r.u64()?;
    let world = Comm::attach(&state.world, rank, incarnation);
    if rank >= world.size() || size != world.size() {
        return Err(malformed(format!("bad HELLO: rank {rank} size {size}")));
    }
    let failure = &state.world.failure;
    if incarnation > 0 || failure.is_failed(rank) {
        failure.clear_failed(rank);
        state.replaced.fetch_add(1, Ordering::SeqCst);
    }
    world.heartbeat();
    conn.send_frame(|out| out.put_u8(RE_WELCOME))?;
    Ok(world)
}

/// Runs a blocking primitive on the rank's behalf and replies with what
/// `encode` makes of its result; the abort out of a poisoned world becomes
/// the `POISONED` reply. Only the primitive runs under `catch_unwind`: a
/// result too large to frame is this connection's error, nobody's poison.
fn reply_or_poisoned<T>(
    conn: &mut Conn<UnixStream>,
    primitive: impl FnOnce() -> T,
    encode: impl FnOnce(&mut Vec<u8>, &T),
) -> io::Result<()> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(primitive)) {
        Ok(result) => conn.send_frame(|out| encode(out, &result)),
        Err(payload) => {
            let rank = payload
                .downcast_ref::<PoisonedWorld>()
                .map_or(u32::MAX, |p| p.rank as u32);
            conn.send_frame(|out| {
                out.put_u8(RE_POISONED);
                out.put_u32_le(rank);
            })
        }
    }
}

/// Request loop of an admitted rank; `Ok` after BYE or FAILSELF. The
/// connection drives `world` and the sub-communicators it registered
/// itself: a frame naming any other communicator, another member's rank
/// as its own, or a forged sender is malformed.
fn serve_rank(conn: &mut Conn<UnixStream>, state: &HubState, world: Comm) -> io::Result<()> {
    let mut subs: HashMap<u64, Comm> = HashMap::new();
    loop {
        let request = decode_request(conn.recv_frame()?)?;
        world.heartbeat();
        let own = |id: u64| match id {
            0 => Ok(&world),
            _ => subs
                .get(&id)
                .ok_or_else(|| malformed(format!("communicator {id} is not this rank's"))),
        };
        match request {
            Request::Send(comm_id, dest, msgs, then) => {
                let comm = own(comm_id)?;
                if dest >= comm.size() || msgs.iter().any(|m| m.src != comm.rank()) {
                    return Err(malformed(format!(
                        "send to rank {dest} outside the comm, or not from rank {}",
                        comm.rank()
                    )));
                }
                match then {
                    None => comm.deposit(dest, msgs),
                    Some((src, tag)) => reply_or_poisoned(
                        conn,
                        || comm.deposit_take(dest, msgs, src, tag),
                        put_msg_reply,
                    )?,
                }
            }
            Request::Match(op, comm_id, (src, tag)) => {
                let comm = own(comm_id)?;
                match op {
                    OP_RECV => reply_or_poisoned(conn, || comm.take(src, tag), put_msg_reply)?,
                    OP_TRYRECV => match comm.try_take(src, tag) {
                        Some(msg) => conn.send_frame(|out| put_msg_reply(out, &msg))?,
                        None => conn.send_frame(|out| out.put_u8(RE_NOMSG))?,
                    },
                    _ => conn.send_frame(|out| {
                        out.put_slice(&[RE_BOOL, comm.probe(src, tag) as u8]);
                    })?,
                }
            }
            Request::Exchange(comm_id, local, mine) => {
                let comm = own(comm_id)?;
                if local != comm.rank() {
                    return Err(malformed(format!(
                        "exchange as rank {local}, not rank {}",
                        comm.rank()
                    )));
                }
                reply_or_poisoned(
                    conn,
                    || comm.exchange(mine),
                    |out, snap| {
                        out.put_u8(RE_SNAP);
                        out.put_u32_le(snap.len() as u32);
                        for slots in snap.iter() {
                            out.put_u32_le(slots.len() as u32);
                            for slot in slots {
                                put_bytes(out, slot);
                            }
                        }
                    },
                )?;
            }
            Request::Split((parent, seq, color), members) => {
                let parent = own(parent)?;
                let bad = || malformed(format!("split {seq} with members {members:?}"));
                let my_rank = members.iter().position(|&m| m == world.rank());
                let my_rank = my_rank.ok_or_else(bad)?;
                if members.iter().any(|&m| m >= world.size()) {
                    return Err(bad());
                }
                let sub = parent.register_split(seq, color, members.clone(), my_rank);
                // An earlier registration of this key decides the members.
                if !(0..sub.size())
                    .map(|r| sub.world_rank(r))
                    .eq(members.iter().copied())
                {
                    return Err(bad());
                }
                conn.send_frame(|out| {
                    out.put_u8(RE_COMMID);
                    out.put_u64_le(sub.id());
                })?;
                subs.insert(sub.id(), sub);
            }
            Request::Stats => {
                let stats = world.network_stats();
                conn.send_frame(|out| {
                    out.put_u8(RE_STATS);
                    out.put_u64_le(stats.transfers);
                    out.put_u64_le(stats.messages);
                })?;
            }
            Request::Status => conn.send_frame(|out| {
                out.put_u8(RE_STATUS);
                out.put_i64_le(world.poisoned().map_or(-1, |r| r as i64));
                out.put_u64_le(world.failures_detected());
            })?,
            Request::Bye => {
                state.done.lock().insert(world.rank());
                state.done_cv.notify_all();
                return Ok(());
            }
            Request::FailSelf => return Ok(()),
            Request::Beat => {}
        }
    }
}

/// The `MSG` reply to RECV, TRYRECV and SENDRECV.
fn put_msg_reply(out: &mut Vec<u8>, msg: &Message) {
    out.put_u8(RE_MSG);
    put_msg(out, msg);
}

// ----------------------------------------------------------------------
// Client
// ----------------------------------------------------------------------

/// A rank's communicator handle over the socket backend. Implements the
/// same [`Communicator`] surface as the in-process [`Comm`].
#[derive(Debug)]
pub struct SocketComm {
    /// The rank's one connection, shared with its sub-communicators.
    conn: Arc<Mutex<Conn<UnixStream>>>,
    rank: usize,
    comm_id: u64,
    /// Communicator-local rank → world rank.
    members: Vec<usize>,
    split_seq: std::cell::Cell<u64>,
    incarnation: u64,
    last_beat: Mutex<Option<std::time::Instant>>,
}

impl SocketComm {
    /// Connects to the hub at `path` as world rank `rank` of `size`.
    /// `incarnation` is 0 for a first spawn, >0 for a replacement of a
    /// failed rank.
    pub fn connect(
        path: &Path,
        rank: usize,
        size: usize,
        incarnation: u64,
    ) -> io::Result<SocketComm> {
        let mut conn = Conn::new(UnixStream::connect(path)?);
        conn.send_frame(|out| put_hello(out, rank, size, incarnation))?;
        if conn.recv_frame()?.first() != Some(&RE_WELCOME) {
            return Err(malformed("hub rejected HELLO".into()));
        }
        Ok(SocketComm {
            conn: Arc::new(Mutex::new(conn)),
            rank,
            comm_id: 0,
            members: (0..size).collect(),
            split_seq: std::cell::Cell::new(0),
            incarnation,
            last_beat: Mutex::new(None),
        })
    }

    /// Says goodbye to the hub (clean completion of this rank).
    pub fn bye(self) -> io::Result<()> {
        self.conn
            .lock()
            .send_frame(|out| Request::Bye.encode_into(out))
    }

    /// Sends `req` and hands the one reply frame to `read`, aborting via
    /// [`PoisonedWorld`] if the hub reports a poisoned world.
    fn request<T>(&self, req: &Request, read: impl FnOnce(&[u8]) -> T) -> T {
        let mut conn = self.conn.lock();
        conn.send_frame(|out| req.encode_into(out))
            .unwrap_or_else(|e| hub_lost(&e));
        let reply = conn.recv_frame().unwrap_or_else(|e| hub_lost(&e));
        if reply.first() == Some(&RE_POISONED) {
            let rank = Reader::new(&reply[1..]).u32().unwrap_or(u32::MAX);
            std::panic::panic_any(PoisonedWorld {
                rank: rank as usize,
            });
        }
        read(reply)
    }

    /// Sends a one-way frame (no reply expected).
    fn send_oneway(&self, req: &Request) {
        let mut conn = self.conn.lock();
        conn.send_frame(|out| req.encode_into(out))
            .unwrap_or_else(|e| hub_lost(&e));
    }

    /// The message of a `MSG` reply on this communicator, if it is one.
    fn reply_msg(&self, reply: &[u8]) -> Option<Message> {
        match reply.split_first()? {
            (&RE_MSG, msg) => Reader::new(msg).msg(self.comm_id).ok(),
            _ => None,
        }
    }

    fn status(&self) -> (Option<usize>, u64) {
        self.request(&Request::Status, |reply| {
            let mut r = Reader::new(&reply[1..]);
            let poisoned = r.i64().ok().filter(|&v| v >= 0).map(|v| v as usize);
            let detected = r.u64().unwrap_or(0);
            (poisoned, detected)
        })
    }
}

/// A frame could not be sent or its reply not read: the hub is gone, or
/// [`check_cap`] refused the caller's own frame.
fn hub_lost(e: &io::Error) -> ! {
    panic!("hub request failed: {e}");
}

impl Communicator for SocketComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.members.len()
    }

    fn id(&self) -> u64 {
        self.comm_id
    }

    fn world_rank(&self, local: usize) -> usize {
        self.members[local]
    }

    fn incarnation(&self) -> u64 {
        self.incarnation
    }

    fn deposit(&self, dest: usize, msgs: Vec<Message>) {
        self.send_oneway(&Request::Send(self.comm_id, dest, msgs, None));
    }

    fn take(&self, src: Option<usize>, tag: Option<Tag>) -> Message {
        let recv = Request::Match(OP_RECV, self.comm_id, (src, tag));
        self.request(&recv, |reply| self.reply_msg(reply))
            .expect("blocking recv returned no message")
    }

    fn deposit_take(
        &self,
        dest: usize,
        msgs: Vec<Message>,
        src: Option<usize>,
        tag: Option<Tag>,
    ) -> Message {
        let sendrecv = Request::Send(self.comm_id, dest, msgs, Some((src, tag)));
        self.request(&sendrecv, |reply| self.reply_msg(reply))
            .expect("sendrecv returned no message")
    }

    fn try_take(&self, src: Option<usize>, tag: Option<Tag>) -> Option<Message> {
        let try_recv = Request::Match(OP_TRYRECV, self.comm_id, (src, tag));
        self.request(&try_recv, |reply| self.reply_msg(reply))
    }

    fn probe(&self, src: Option<usize>, tag: Option<Tag>) -> bool {
        let probe = Request::Match(OP_PROBE, self.comm_id, (src, tag));
        self.request(&probe, |reply| reply == [RE_BOOL, 1])
    }

    fn exchange(&self, mine: Vec<Bytes>) -> Arc<Vec<Vec<Bytes>>> {
        let exchange = Request::Exchange(self.comm_id, self.rank, mine);
        self.request(&exchange, |reply| {
            let mut r = Reader::new(reply);
            let op = r.chunk(1).map(|c| c[0]).unwrap_or(0);
            assert_eq!(op, RE_SNAP, "exchange expects a snapshot reply");
            let nranks = r.count(4).expect("snapshot rank count");
            let mut snap = Vec::with_capacity(nranks);
            for _ in 0..nranks {
                let nslots = r.count(4).expect("snapshot slot count");
                let mut slots = Vec::with_capacity(nslots);
                for _ in 0..nslots {
                    slots.push(r.bytes().expect("snapshot slot"));
                }
                snap.push(slots);
            }
            Arc::new(snap)
        })
    }

    fn next_split_seq(&self) -> u64 {
        let seq = self.split_seq.get();
        self.split_seq.set(seq + 1);
        seq
    }

    fn register_split(&self, seq: u64, color: i64, members: Vec<usize>, my_rank: usize) -> Self {
        let split = Request::Split((self.comm_id, seq, color), members.clone());
        let id = self.request(&split, |reply| {
            assert_eq!(reply.first(), Some(&RE_COMMID), "split expects a comm id");
            Reader::new(&reply[1..]).u64().expect("comm id")
        });
        SocketComm {
            conn: Arc::clone(&self.conn),
            rank: my_rank,
            comm_id: id,
            members,
            split_seq: std::cell::Cell::new(0),
            incarnation: self.incarnation,
            last_beat: Mutex::new(None),
        }
    }

    fn network_stats(&self) -> NetworkStats {
        self.request(&Request::Stats, |reply| {
            let mut r = Reader::new(&reply[1..]);
            NetworkStats {
                transfers: r.u64().unwrap_or(0),
                messages: r.u64().unwrap_or(0),
            }
        })
    }

    fn poisoned(&self) -> Option<usize> {
        self.status().0
    }

    fn failures_detected(&self) -> u64 {
        self.status().1
    }

    fn heartbeat(&self) {
        // Throttled: a BEAT frame at most every 50 ms keeps hub-side
        // staleness detection fed without per-event wire traffic.
        let mut last = self.last_beat.lock();
        let now = std::time::Instant::now();
        if last.is_none_or(|t| now.duration_since(t) >= Duration::from_millis(50)) {
            *last = Some(now);
            drop(last);
            self.send_oneway(&Request::Beat);
        }
    }

    fn fail_self(&self, fault: RankFault) -> ! {
        match fault {
            RankFault::Panic => panic!("injected rank fault: panic at rank {}", self.rank),
            RankFault::Hang => loop {
                // Go silent: no frames, no exit. The hub's heartbeat
                // monitor (or the orchestrator) reaps this rank.
                std::thread::sleep(Duration::from_secs(3600));
            },
            RankFault::Disconnect => {
                self.send_oneway(&Request::FailSelf);
                std::panic::panic_any(PoisonedWorld { rank: self.rank });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::ReduceOp;
    use std::sync::atomic::AtomicUsize;

    static SOCKET_SEQ: AtomicUsize = AtomicUsize::new(0);

    impl Request {
        /// The frame body of [`Request::encode_into`] in a buffer of its own.
        fn encode(&self) -> Vec<u8> {
            let mut f = Vec::new();
            self.encode_into(&mut f);
            f
        }
    }

    fn temp_socket(tag: &str) -> std::path::PathBuf {
        let n = SOCKET_SEQ.fetch_add(1, Ordering::SeqCst);
        std::env::temp_dir().join(format!(
            "pythia-minimpi-{}-{}-{}.sock",
            std::process::id(),
            tag,
            n
        ))
    }

    fn wait_bound(path: &Path) {
        for _ in 0..400 {
            if path.exists() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Runs `f` on `size` in-process clients against a hub thread (the
    /// socket backend exercised without multi-process orchestration).
    fn run_socket_world<R, F>(size: usize, elastic: bool, tag: &str, f: F) -> (Vec<R>, HubStats)
    where
        R: Send,
        F: Fn(SocketComm) -> R + Send + Sync,
    {
        let path = temp_socket(tag);
        let path2 = path.clone();
        let hub = std::thread::spawn(move || Hub::serve(&path2, size, elastic).expect("hub"));
        wait_bound(&path);
        let results = std::thread::scope(|s| {
            let handles: Vec<_> = (0..size)
                .map(|rank| {
                    let f = &f;
                    let path = &path;
                    s.spawn(move || {
                        let comm = SocketComm::connect(path, rank, size, 0).expect("connect");
                        f(comm)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect::<Vec<R>>()
        });
        let stats = hub.join().expect("hub thread");
        (results, stats)
    }

    #[test]
    fn socket_ring_and_collectives() {
        let (out, stats) = run_socket_world(4, false, "ring", |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(&[comm.rank() as u64], next, 0);
            let (data, status) = comm.recv::<u64>(Some(prev), Some(0));
            assert_eq!(status.source, prev);
            let total = comm.allreduce(&[comm.rank() as u64], ReduceOp::Sum);
            comm.barrier();
            let r = (data[0], total[0]);
            comm.bye().expect("bye");
            r
        });
        assert_eq!(
            out.iter().map(|&(d, _)| d).collect::<Vec<_>>(),
            vec![3, 0, 1, 2]
        );
        assert!(out.iter().all(|&(_, t)| t == 6));
        assert_eq!(stats, HubStats::default());
    }

    #[test]
    fn socket_split_and_alltoall() {
        let (out, stats) = run_socket_world(4, false, "split", |comm| {
            let row = (comm.rank() / 2) as i64;
            let row_comm = comm.split(row, comm.rank() as i64);
            assert_eq!(row_comm.size(), 2);
            let total = row_comm.allreduce(&[comm.rank() as u64], ReduceOp::Sum);
            let sends: Vec<Vec<u64>> = (0..comm.size())
                .map(|d| vec![(comm.rank() * 10 + d) as u64])
                .collect();
            let recvd = comm.alltoall(&sends);
            let r = (row_comm.rank(), total[0], recvd[2][0]);
            comm.bye().expect("bye");
            r
        });
        assert_eq!((out[0].0, out[0].1), (0, 1));
        assert_eq!((out[3].0, out[3].1), (1, 5));
        // alltoall: rank r receives 2*10 + r from sender 2.
        for (r, entry) in out.iter().enumerate() {
            assert_eq!(entry.2, (20 + r) as u64);
        }
        assert_eq!(stats.failures_detected, 0);
    }

    /// A survivor parked in `recv` (a RECV frame) or in `sendrecv` (a
    /// SENDRECV frame, its own send already deposited) aborts when its
    /// peer vanishes.
    #[test]
    fn socket_dead_rank_poisons_survivors() {
        for in_sendrecv in [false, true] {
            let (out, stats) = run_socket_world(2, false, "dead", |comm| {
                if comm.rank() == 1 {
                    // Vanish without BYE: the hub sees EOF and poisons.
                    drop(comm);
                    return true;
                }
                let aborted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    if in_sendrecv {
                        comm.sendrecv(&[5u64], 1, Some(1), 7)
                    } else {
                        comm.recv::<u64>(Some(1), Some(7))
                    }
                }))
                .is_err();
                let _ = comm.bye();
                aborted
            });
            assert!(out[0], "survivor must abort, not hang");
            assert_eq!(stats.failures_detected, 1);
        }
    }

    #[test]
    fn socket_elastic_replacement_rejoins() {
        let path = temp_socket("elastic");
        let path2 = path.clone();
        let hub = std::thread::spawn(move || Hub::serve(&path2, 2, true).expect("hub"));
        wait_bound(&path);
        let survivor = {
            let path = path.clone();
            std::thread::spawn(move || {
                let comm = SocketComm::connect(&path, 0, 2, 0).expect("connect");
                // Blocks until the replacement incarnation of rank 1
                // reaches the barrier.
                comm.barrier();
                let (data, _) = comm.recv::<u64>(Some(1), Some(3));
                comm.bye().expect("bye");
                data[0]
            })
        };
        // First incarnation of rank 1 dies before the barrier.
        {
            let comm = SocketComm::connect(&path, 1, 2, 0).expect("connect");
            drop(comm);
        }
        std::thread::sleep(Duration::from_millis(50));
        // Replacement rejoins and completes the world.
        {
            let comm = SocketComm::connect(&path, 1, 2, 1).expect("reconnect");
            assert_eq!(comm.incarnation(), 1);
            comm.barrier();
            comm.send(&[99u64], 0, 3);
            comm.bye().expect("bye");
        }
        assert_eq!(survivor.join().expect("survivor"), 99);
        let stats = hub.join().expect("hub");
        assert_eq!(stats.failures_detected, 1);
        assert_eq!(stats.ranks_replaced, 1);
    }

    /// A frame of each payload-carrying request, as `SocketComm` sends it:
    /// SEND, EXCHANGE, SPLIT, SENDRECV (the four with an element count),
    /// RECV.
    fn valid_frame(kind: u8, comm_id: u64, rank: u32, blobs: &[Vec<u8>]) -> Vec<u8> {
        let rank = rank as usize;
        let mut slots = blobs.iter().map(|b| Bytes::copy_from_slice(b));
        let msg = |(i, data)| Message {
            src: rank,
            tag: i as Tag,
            comm_id,
            data,
        };
        match kind % 5 {
            0 => Request::Send(comm_id, rank, slots.enumerate().map(msg).collect(), None),
            1 => Request::Exchange(comm_id, rank, slots.collect()),
            2 => Request::Split(
                (comm_id, rank as u64, -1),
                blobs.iter().map(Vec::len).collect(),
            ),
            // From `rank` on the first blob's tag, or anything without one.
            3 => {
                let then = (blobs.first().map(|_| rank), blobs.first().map(|_| 0));
                Request::Send(
                    comm_id,
                    rank,
                    slots.enumerate().map(msg).collect(),
                    Some(then),
                )
            }
            // Any source when there are no blobs, `rank` otherwise.
            _ => Request::Match(OP_RECV, comm_id, (slots.next().map(|_| rank), None)),
        }
        .encode()
    }

    /// A stream double: `read` hands out what is queued (as a socket
    /// does, as much as fits), `write` keeps what it is given, and both
    /// count their calls — each would be a syscall.
    #[derive(Debug, Default)]
    struct Wire {
        inbound: std::collections::VecDeque<u8>,
        outbound: Vec<u8>,
        reads: usize,
        writes: usize,
    }

    impl Read for Wire {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            self.inbound.read(buf)
        }
    }

    impl Write for Wire {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.outbound.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Conn<Wire> {
        /// Moves what this end wrote into `peer`'s receive queue.
        fn deliver_to(&mut self, peer: &mut Conn<Wire>) {
            let sent = std::mem::take(&mut self.reader.get_mut().outbound);
            peer.reader.get_mut().inbound.extend(sent);
        }

        fn calls(&self) -> (usize, usize) {
            let wire = self.reader.get_ref();
            (wire.reads, wire.writes)
        }
    }

    /// A blocking operation is one frame each way and each frame one
    /// `write` at the end that sends it and one `read` at the other.
    #[test]
    fn a_round_trip_is_one_write_and_one_read_at_each_end() {
        let (mut rank, mut hub) = (Conn::new(Wire::default()), Conn::new(Wire::default()));
        let data = Bytes::from(vec![7u8; 24]);
        let msg = Message {
            src: 0,
            tag: 7,
            comm_id: 0,
            data: data.clone(),
        };
        let requests = [
            Request::Send(0, 1, vec![msg.clone()], Some((Some(1), Some(7)))),
            Request::Exchange(0, 0, vec![data.clone()]),
        ];
        // Twice: the second pass runs in warm buffers.
        for req in requests.iter().chain(&requests) {
            let before = (rank.calls(), hub.calls());
            rank.send_frame(|out| req.encode_into(out))
                .expect("request");
            rank.deliver_to(&mut hub);
            let got = decode_request(hub.recv_frame().expect("request frame")).expect("decodes");
            assert_eq!(got.encode(), req.encode());
            hub.send_frame(|out| put_msg_reply(out, &msg))
                .expect("reply");
            hub.deliver_to(&mut rank);
            let reply = rank.recv_frame().expect("reply frame");
            assert_eq!((reply[0], &reply[13..]), (RE_MSG, &data[..]));
            let ((r0, w0), (r1, w1)) = before;
            assert_eq!(rank.calls(), (r0 + 1, w0 + 1), "rank end, {req:?}");
            assert_eq!(hub.calls(), (r1 + 1, w1 + 1), "hub end, {req:?}");
        }
    }

    /// Frames written back to back (a SEND and the RECV behind it) arrive
    /// in one `read`; the next frame costs the next.
    #[test]
    fn back_to_back_frames_are_served_from_one_read() {
        let (mut rank, mut hub) = (Conn::new(Wire::default()), Conn::new(Wire::default()));
        let frames = [
            valid_frame(0, 0, 1, &[vec![1, 2, 3]]),
            valid_frame(4, 0, 1, &[]),
        ];
        for frame in &frames {
            rank.send_frame(|out| out.put_slice(frame)).expect("send");
        }
        rank.deliver_to(&mut hub);
        for frame in &frames {
            assert_eq!(hub.recv_frame().expect("frame"), frame);
        }
        assert_eq!(hub.calls().0, 1);
        let eof = hub.recv_frame().expect_err("nothing queued");
        assert_eq!(
            (eof.kind(), hub.calls().0),
            (io::ErrorKind::UnexpectedEof, 2)
        );
    }

    /// The sender is told about the cap, with the size, the cap and the
    /// opcode — the peer would only call it a hostile length.
    #[test]
    fn the_frame_cap_is_checked_where_the_frame_is_encoded() {
        assert!(check_cap(MAX_FRAME, OP_SEND).is_ok());
        let refused = check_cap(MAX_FRAME + 1, OP_EXCHANGE).expect_err("over the cap");
        assert_eq!(refused.kind(), io::ErrorKind::InvalidInput);
        // The hub returns it from `serve_rank`; a client panics with it.
        let at_the_call = std::panic::AssertUnwindSafe(|| hub_lost(&refused));
        let panic = std::panic::catch_unwind(at_the_call).expect_err("diverges");
        let text = panic.downcast_ref::<String>().expect("a formatted panic");
        for fact in ["67108865 bytes", "67108864-byte cap", "opcode 0x06"] {
            assert!(text.contains(fact), "{text:?} lacks {fact:?}");
        }
        // The reader's side of the same constant.
        let mut hub = Conn::new(Wire::default());
        let lying = (MAX_FRAME as u32 + 1).to_le_bytes();
        hub.reader.get_mut().inbound.extend(lying);
        let hostile = hub.recv_frame().expect_err("over the cap");
        assert_eq!(hostile.kind(), io::ErrorKind::InvalidData);
    }

    /// A rank that sends a malformed frame is failed like one that died:
    /// the hub counts it, poisons the world so the survivor aborts, and
    /// `Hub::serve` returns — it must neither wait for a BYE that will
    /// never come nor lose its handler thread to a panic. Malformed
    /// includes well-formed frames that speak for somebody else.
    #[test]
    fn garbage_frame_fails_the_rank_and_serve_returns() {
        let send_out_of_comm = valid_frame(0, 0, 7, &[]);
        let mut send_huge_count = valid_frame(0, 0, 0, &[]);
        send_huge_count[13..17].copy_from_slice(&u32::MAX.to_le_bytes());
        let split_nobody = valid_frame(2, 0, 0, &[]);
        // Rank 1 says these; rank 0 is the sender, the board slot, the
        // only member, and comm 9 a communicator it never registered.
        let send_forged_src = valid_frame(0, 0, 0, &[vec![1]]);
        let exchange_foreign_local = valid_frame(1, 0, 0, &[]);
        let split_without_me = valid_frame(2, 0, 0, &[vec![]]);
        let recv_foreign_comm = valid_frame(4, 9, 0, &[]);
        // SENDRECV is held to everything SEND is.
        let sendrecv_out_of_comm = valid_frame(3, 0, 7, &[]);
        let sendrecv_forged_src = valid_frame(3, 0, 0, &[vec![1]]);
        let sendrecv_foreign_comm = valid_frame(3, 9, 1, &[vec![1]]);
        for garbage in [
            vec![0xEE],
            send_out_of_comm,
            send_huge_count,
            split_nobody,
            send_forged_src,
            exchange_foreign_local,
            split_without_me,
            recv_foreign_comm,
            sendrecv_out_of_comm,
            sendrecv_forged_src,
            sendrecv_foreign_comm,
        ] {
            let path = temp_socket("garbage");
            let (tx, rx) = std::sync::mpsc::channel();
            let hub_path = path.clone();
            std::thread::spawn(move || tx.send(Hub::serve(&hub_path, 2, false)));
            wait_bound(&path);
            let (admitted_tx, admitted) = std::sync::mpsc::channel();
            let survivor = {
                let path = path.clone();
                std::thread::spawn(move || {
                    let comm = SocketComm::connect(&path, 0, 2, 0).expect("connect");
                    admitted_tx.send(()).expect("main thread");
                    let aborted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        comm.recv::<u64>(Some(1), Some(7))
                    }))
                    .is_err();
                    let _ = comm.bye();
                    aborted
                })
            };
            // The garbage poisons the world and closes the listener: the
            // survivor must be in before it is said.
            admitted.recv().expect("survivor connects");
            // Rank 1 by hand, so it can say something no client would.
            let mut raw = Conn::new(UnixStream::connect(&path).expect("connect"));
            raw.send_frame(|out| put_hello(out, 1, 2, 0))
                .expect("hello");
            assert_eq!(raw.recv_frame().expect("welcome"), [RE_WELCOME]);
            raw.send_frame(|out| out.put_slice(&garbage))
                .expect("garbage");
            // `raw` stays open: detection must not depend on the EOF.
            let stats = rx
                .recv_timeout(Duration::from_secs(30))
                .unwrap_or_else(|_| panic!("hub wedged on garbage frame {garbage:?}"))
                .expect("hub");
            assert_eq!(stats.failures_detected, 1, "frame {garbage:?}");
            assert!(survivor.join().expect("survivor"), "survivor must abort");
        }
    }

    mod fuzz {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        fn byte() -> impl Strategy<Value = u8> {
            (0u16..256).prop_map(|b| b as u8)
        }

        /// Wire bytes the decoded vectors were reserved for, at the
        /// minimum encoded size per element: must be covered by the frame.
        fn reserved_wire_bytes(req: &Request) -> usize {
            match req {
                Request::Send(_, _, msgs, _) => msgs.capacity() * 12,
                Request::Exchange(_, _, mine) => mine.capacity() * 4,
                Request::Split(_, members) => members.capacity() * 4,
                _ => 0,
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Arbitrary bytes decode to some verdict, never a panic, and
            /// reserve nothing the frame does not back.
            #[test]
            fn arbitrary_bytes_never_panic(op in 0u8..16, tail in vec(byte(), 0..256)) {
                let mut frame = vec![op];
                frame.extend_from_slice(&tail);
                if let Ok(req) = decode_request(&frame) {
                    prop_assert!(reserved_wire_bytes(&req) <= frame.len());
                }
                let _ = decode_request(&tail);
            }

            /// A count the frame cannot back is an error before anything
            /// is allocated for it (17-byte SEND, 17-byte EXCHANGE, 29-byte
            /// SPLIT, 33-byte SENDRECV headers claiming up to 4 G elements).
            #[test]
            fn unbacked_counts_are_rejected(
                kind in 0u8..4,
                claimed in 1u32..u32::MAX - 8,
                blobs in vec(vec(byte(), 0..8), 0..4),
            ) {
                let mut frame = valid_frame(kind, 0, 0, &blobs);
                // Offset of the count field: after op + key (SPLIT), or
                // op + comm + rank (SEND, EXCHANGE) + filter (SENDRECV).
                let at = match kind { 2 => 25, 3 => 29, _ => 13 };
                frame[at..at + 4].copy_from_slice(&(blobs.len() as u32 + claimed).to_le_bytes());
                prop_assert!(decode_request(&frame).is_err());
            }

            /// Valid frames decode to the request that encodes them; every
            /// strict prefix, and any trailing byte, is an error.
            #[test]
            fn valid_frames_roundtrip_and_truncations_err(
                kind in 0u8..5,
                comm_id in 0u64..u64::MAX,
                rank in 0u32..u32::MAX,
                blobs in vec(vec(byte(), 0..24), 0..6),
            ) {
                let frame = valid_frame(kind, comm_id, rank, &blobs);
                let req = decode_request(&frame).expect("valid frame");
                prop_assert_eq!(&req.encode(), &frame);
                for cut in 0..frame.len() {
                    prop_assert!(decode_request(&frame[..cut]).is_err(), "cut {cut} accepted");
                }
                let mut long = frame;
                long.push(0);
                prop_assert!(decode_request(&long).is_err(), "trailing byte accepted");
            }

            /// A single flipped byte yields an error or the request that
            /// encodes the mutated frame — never a panic, never an unbacked
            /// reservation.
            #[test]
            fn point_mutations_never_panic(
                kind in 0u8..5,
                blobs in vec(vec(byte(), 0..24), 0..6),
                pos in 0usize..4096,
                xor in 1u16..256,
            ) {
                let mut frame = valid_frame(kind, 3, 1, &blobs);
                let i = pos % frame.len();
                frame[i] ^= xor as u8;
                if let Ok(req) = decode_request(&frame) {
                    prop_assert!(reserved_wire_bytes(&req) <= frame.len());
                    prop_assert_eq!(&req.encode(), &frame);
                }
            }
        }
    }
}
