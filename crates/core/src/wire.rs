//! Binary wire helpers shared by the trace format ([`crate::trace`]),
//! the durability layer ([`crate::persist`]), and external
//! length-prefixed protocols (the `pythia-serve` request/response
//! framing reuses the cursor, varint, and string primitives below; the
//! grammar/registry/timing serializers stay crate-internal).
//!
//! All readers take `&mut &[u8]` cursors with explicit bounds checks
//! (`bytes::Buf` panics on underflow, so every read goes through
//! [`take`]); all length fields are validated against the remaining input
//! before any allocation, so a corrupt header can never trigger a huge
//! allocation or a panic.

use bytes::{Buf, BufMut, BytesMut};

use crate::error::{Error, Result};
use crate::event::EventRegistry;
use crate::grammar::{Grammar, Rule, RuleId, Symbol, SymbolUse};
use crate::timing::{TimingEntry, TimingModel};

/// Splits the first `n` bytes off the cursor, or errors if fewer remain.
pub fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8]> {
    if buf.len() < n {
        return Err(Error::Corrupt(format!(
            "unexpected end of file (wanted {n} bytes, {} left)",
            buf.len()
        )));
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

/// Reads one byte.
pub fn get_u8(buf: &mut &[u8]) -> Result<u8> {
    Ok(take(buf, 1)?[0])
}

/// Reads a little-endian u32.
pub fn get_u32(buf: &mut &[u8]) -> Result<u32> {
    Ok(take(buf, 4)?.get_u32_le())
}

/// Reads a little-endian u64.
pub fn get_u64(buf: &mut &[u8]) -> Result<u64> {
    Ok(take(buf, 8)?.get_u64_le())
}

/// Reads a little-endian i64.
pub fn get_i64(buf: &mut &[u8]) -> Result<i64> {
    Ok(take(buf, 8)?.get_i64_le())
}

/// LEB128 unsigned varint: 7 value bits per byte, least-significant group
/// first, high bit set on all but the last byte. Small values (event ids,
/// timestamp deltas) cost 1-2 bytes instead of 4-12.
///
/// Encoder counterpart of [`get_varint`], used by tests and non-hot-path
/// writers; the record hot path uses a stack-buffer variant in
/// `crate::record` to batch its stage appends.
#[inline]
pub fn put_varint(buf: &mut impl BufMut, mut v: u64) {
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(b);
            return;
        }
        buf.put_u8(b | 0x80);
    }
}

#[inline]
/// Decoder counterpart of [`put_varint`]; rejects encodings longer
/// than 10 bytes or overflowing a u64.
pub fn get_varint(buf: &mut &[u8]) -> Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = get_u8(buf)?;
        if shift == 63 && b > 1 {
            return Err(Error::Corrupt("varint overflows u64".into()));
        }
        v |= ((b & 0x7F) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(Error::Corrupt("varint longer than 10 bytes".into()));
        }
    }
}

/// Writes a u32-length-prefixed UTF-8 string.
pub fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Reads a u32-length-prefixed UTF-8 string (capped at 1 MiB).
pub fn get_str(buf: &mut &[u8]) -> Result<String> {
    let len = get_u32(buf)? as usize;
    if len > 1 << 20 {
        return Err(Error::Corrupt(format!("implausible string length {len}")));
    }
    let bytes = take(buf, len)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| Error::Corrupt("invalid utf-8".into()))
}

/// Serializes one registry descriptor (name + optional payload).
pub(crate) fn put_desc(buf: &mut BytesMut, name: &str, payload: Option<i64>) {
    put_str(buf, name);
    match payload {
        Some(p) => {
            buf.put_u8(1);
            buf.put_i64_le(p);
        }
        None => buf.put_u8(0),
    }
}

pub(crate) fn get_desc(buf: &mut &[u8]) -> Result<(String, Option<i64>)> {
    let name = get_str(buf)?;
    let payload = match get_u8(buf)? {
        0 => None,
        1 => Some(get_i64(buf)?),
        x => return Err(Error::Corrupt(format!("bad payload tag {x}"))),
    };
    Ok((name, payload))
}

pub(crate) fn put_registry(buf: &mut BytesMut, registry: &EventRegistry) {
    buf.put_u32_le(registry.len() as u32);
    for (_, desc) in registry.iter() {
        put_desc(buf, &desc.name, desc.payload);
    }
}

pub(crate) fn get_registry(buf: &mut &[u8]) -> Result<EventRegistry> {
    let n_events = get_u32(buf)? as usize;
    // Each registry entry consumes at least 5 bytes (name length +
    // payload tag), so a count larger than the remaining input can
    // only come from a corrupt header.
    if n_events > buf.len() / 5 {
        return Err(Error::Corrupt(format!(
            "implausible event count {n_events} for {} remaining bytes",
            buf.len()
        )));
    }
    let mut registry = EventRegistry::new();
    for _ in 0..n_events {
        let (name, payload) = get_desc(buf)?;
        registry.intern(&name, payload);
    }
    // `intern` drops a repeated descriptor, which would shift every later
    // id onto the next descriptor. No writer repeats one.
    if registry.len() != n_events {
        return Err(Error::Corrupt("registry repeats a descriptor".into()));
    }
    Ok(registry)
}

pub(crate) fn put_grammar(buf: &mut BytesMut, g: &Grammar) {
    // The grammar must be compacted (dense ids, root 0).
    debug_assert_eq!(g.root(), RuleId(0));
    let rules: Vec<_> = g.iter_rules().collect();
    buf.put_u32_le(rules.len() as u32);
    for (_, rule) in rules {
        buf.put_u32_le(rule.body.len() as u32);
        for u in &rule.body {
            match u.symbol {
                Symbol::Terminal(e) => {
                    buf.put_u8(0);
                    buf.put_u32_le(e.0);
                }
                Symbol::Rule(r) => {
                    buf.put_u8(1);
                    buf.put_u32_le(r.0);
                }
            }
            buf.put_u32_le(u.count);
        }
        buf.put_u32_le(rule.refcount);
    }
}

pub(crate) fn get_grammar(buf: &mut &[u8]) -> Result<Grammar> {
    let n_rules = get_u32(buf)? as usize;
    // Each rule consumes at least a body length and a refcount (8 bytes).
    if n_rules > 1 << 26 || n_rules > buf.len() / 8 {
        return Err(Error::Corrupt(format!(
            "implausible rule count {n_rules} for {} remaining bytes",
            buf.len()
        )));
    }
    let mut rules = Vec::with_capacity(n_rules.min(4096));
    for _ in 0..n_rules {
        let body_len = get_u32(buf)? as usize;
        // Each symbol use is a tag, an id and a count (9 bytes).
        if body_len > 1 << 26 || body_len > buf.len() / 9 {
            return Err(Error::Corrupt(format!(
                "implausible body length {body_len} for {} remaining bytes",
                buf.len()
            )));
        }
        let mut body = Vec::with_capacity(body_len.min(4096));
        for _ in 0..body_len {
            let tag = get_u8(buf)?;
            let id = get_u32(buf)?;
            let symbol = match tag {
                0 => Symbol::Terminal(crate::event::EventId(id)),
                1 => Symbol::Rule(RuleId(id)),
                x => return Err(Error::Corrupt(format!("bad symbol tag {x}"))),
            };
            let count = get_u32(buf)?;
            if count == 0 {
                return Err(Error::Corrupt("zero repetition count".into()));
            }
            body.push(SymbolUse { symbol, count });
        }
        let refcount = get_u32(buf)?;
        rules.push(Some(Rule { body, refcount }));
    }
    if rules.is_empty() {
        return Err(Error::Corrupt("grammar with no rules".into()));
    }
    let g = Grammar {
        rules,
        root: RuleId(0),
    };
    validate_grammar(&g)?;
    Ok(g)
}

/// Structural validation of a deserialized grammar: all rule references in
/// bounds, rule graph acyclic (so loading a hostile file cannot make the
/// predictor loop forever or index out of bounds).
pub(crate) fn validate_grammar(g: &Grammar) -> Result<()> {
    let n = g.rule_count();
    for (id, rule) in g.iter_rules() {
        if id != g.root() && rule.body.is_empty() {
            return Err(Error::Corrupt(format!("empty body for rule {id}")));
        }
        for u in &rule.body {
            if u.count == 0 {
                return Err(Error::Corrupt("zero repetition count".into()));
            }
            if let Symbol::Rule(r) = u.symbol {
                if r.index() >= n || !g.is_live(r) {
                    return Err(Error::Corrupt(format!(
                        "rule {id} references out-of-range rule {r}"
                    )));
                }
            }
        }
    }
    // Cycle detection (iterative three-color DFS, mirrors
    // `Grammar::topological_order` but returns an error instead of
    // panicking).
    let mut color = vec![0u8; n]; // 0 white, 1 grey, 2 black
    for start in 0..n {
        if color[start] != 0 {
            continue;
        }
        let mut stack = vec![(RuleId(start as u32), 0usize)];
        color[start] = 1;
        'outer: while let Some(&(r, next)) = stack.last() {
            let body = &g.rule(r).body;
            let mut i = next;
            while i < body.len() {
                let sym = body[i].symbol;
                i += 1;
                if let Symbol::Rule(child) = sym {
                    match color[child.index()] {
                        0 => {
                            color[child.index()] = 1;
                            stack.last_mut().unwrap().1 = i;
                            stack.push((child, 0));
                            continue 'outer;
                        }
                        1 => {
                            return Err(Error::Corrupt(format!(
                                "rule graph cycle through {child}"
                            )));
                        }
                        _ => {}
                    }
                }
            }
            color[r.index()] = 2;
            stack.pop();
        }
    }
    Ok(())
}

pub(crate) fn put_timing(buf: &mut BytesMut, t: &TimingModel) {
    let entries = t.entries();
    buf.put_u32_le(entries.len() as u32);
    for e in entries {
        buf.put_u64_le(e.key);
        buf.put_u64_le(e.sum_ns);
        buf.put_u64_le(e.count);
    }
}

pub(crate) fn get_timing(buf: &mut &[u8]) -> Result<TimingModel> {
    let n = get_u32(buf)? as usize;
    // Each timing entry is three u64s (24 bytes).
    if n > 1 << 26 || n > buf.len() / 24 {
        return Err(Error::Corrupt(format!(
            "implausible timing entry count {n} for {} remaining bytes",
            buf.len()
        )));
    }
    let mut entries = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let key = get_u64(buf)?;
        let sum_ns = get_u64(buf)?;
        let count = get_u64(buf)?;
        if count == 0 {
            return Err(Error::Corrupt("timing entry with zero count".into()));
        }
        entries.push(TimingEntry { key, sum_ns, count });
    }
    let model = TimingModel::from_entries(entries);
    if model.has_repeated_key() {
        return Err(Error::Corrupt("timing table repeats a context key".into()));
    }
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() {
        let cases = [
            0u64,
            1,
            127,
            128,
            300,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &v in &cases {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            let mut r: &[u8] = &buf;
            assert_eq!(get_varint(&mut r).unwrap(), v, "value {v}");
            assert!(r.is_empty(), "value {v} left trailing bytes");
        }
        let mut buf = BytesMut::new();
        put_varint(&mut buf, 127);
        assert_eq!(buf.len(), 1);
        put_varint(&mut buf, 128);
        assert_eq!(buf.len(), 3);
    }

    #[test]
    fn varint_rejects_overflow_and_truncation() {
        // 11 continuation bytes: longer than any u64 varint.
        let long = [0x80u8; 11];
        let mut r: &[u8] = &long;
        assert!(get_varint(&mut r).is_err());
        // 10th byte carrying more than the single remaining bit.
        let over = [0xFFu8, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02];
        let mut r: &[u8] = &over;
        assert!(get_varint(&mut r).is_err());
        // Truncated mid-varint.
        let cut = [0x80u8];
        let mut r: &[u8] = &cut;
        assert!(get_varint(&mut r).is_err());
    }
}
