//! Binary (de)serialization of the data model.
//!
//! The durability layer persists events and schemas in a compact
//! little-endian framing (the build environment is offline, so no
//! serde). The format is deliberately simple: fixed-width scalars, `u32`
//! length-prefixed sequences, one tag byte per variant. Every `decode`
//! validates lengths and tags and fails with a [`CodecError`] instead of
//! panicking, so corrupted or truncated on-disk state surfaces as a clean
//! error.

use crate::event::Event;
use crate::schema::{Schema, SchemaRegistry, TypeId};
use crate::time::Time;
use crate::value::Value;
use std::fmt;

/// Decoding failure: truncated input, bad tag, or malformed payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

/// Cursor over an encoded byte slice; every read is bounds-checked.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError(format!(
                "unexpected end of input: need {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `f64` stored as its IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a `u32` length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// Read a `u32` length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.bytes()?)
            .map_err(|e| CodecError(format!("invalid UTF-8 string: {e}")))
    }

    /// Read a sequence length, rejecting lengths that could not possibly
    /// fit in the remaining input (`min_item_bytes` per element).
    pub fn seq_len(&mut self, min_item_bytes: usize) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_item_bytes.max(1)) > self.remaining() {
            return Err(CodecError(format!(
                "sequence length {n} exceeds remaining input ({} bytes)",
                self.remaining()
            )));
        }
        Ok(n)
    }
}

/// Append a little-endian `u16`.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append an `Option<u64>` (presence byte + value).
pub fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => out.push(0),
        Some(x) => {
            out.push(1);
            put_u64(out, x);
        }
    }
}

/// Decode an `Option<u64>` written by [`put_opt_u64`].
pub fn get_opt_u64(r: &mut Reader<'_>) -> Result<Option<u64>, CodecError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.u64()?)),
        t => Err(CodecError(format!("bad Option tag {t}"))),
    }
}

/// Append a little-endian `i64`.
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` as its IEEE-754 bit pattern.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Append a `u32` length-prefixed byte string.
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// Append a `u32` length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

const TAG_INT: u8 = 0;
const TAG_FLOAT: u8 = 1;
const TAG_STR: u8 = 2;
const TAG_BOOL: u8 = 3;

impl Value {
    /// Append the binary encoding of this value.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Value::Int(i) => {
                out.push(TAG_INT);
                put_i64(out, *i);
            }
            Value::Float(f) => {
                out.push(TAG_FLOAT);
                put_f64(out, *f);
            }
            Value::Str(s) => {
                out.push(TAG_STR);
                put_str(out, s);
            }
            Value::Bool(b) => {
                out.push(TAG_BOOL);
                out.push(*b as u8);
            }
        }
    }

    /// Decode a value encoded by [`Value::encode`].
    pub fn decode(r: &mut Reader<'_>) -> Result<Value, CodecError> {
        match r.u8()? {
            TAG_INT => Ok(Value::Int(r.i64()?)),
            TAG_FLOAT => Ok(Value::Float(r.f64()?)),
            TAG_STR => Ok(Value::from(r.str()?)),
            TAG_BOOL => Ok(Value::Bool(r.u8()? != 0)),
            t => Err(CodecError(format!("unknown Value tag {t}"))),
        }
    }
}

impl Event {
    /// Append the binary encoding of this event
    /// (`time, type_id, attr count, attrs`).
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.time.ticks());
        put_u16(out, self.type_id.0);
        put_u32(out, self.attrs.len() as u32);
        for v in self.attrs.iter() {
            v.encode(out);
        }
    }

    /// Decode an event encoded by [`Event::encode`]. Attribute arity is
    /// whatever was written — callers validating against a schema should
    /// use [`SchemaRegistry`] afterwards.
    pub fn decode(r: &mut Reader<'_>) -> Result<Event, CodecError> {
        let time = Time(r.u64()?);
        let type_id = TypeId(r.u16()?);
        let n = r.seq_len(1)?;
        let mut attrs = Vec::with_capacity(n);
        for _ in 0..n {
            attrs.push(Value::decode(r)?);
        }
        Ok(Event::new_unchecked(type_id, time, attrs))
    }
}

impl Schema {
    /// Append the binary encoding of this schema.
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_str(out, &self.name);
        put_u32(out, self.attributes.len() as u32);
        for a in &self.attributes {
            put_str(out, a);
        }
    }

    /// Decode a schema encoded by [`Schema::encode`].
    pub fn decode(r: &mut Reader<'_>) -> Result<Schema, CodecError> {
        let name = r.str()?.to_string();
        let n = r.seq_len(4)?;
        let mut attributes = Vec::with_capacity(n);
        for _ in 0..n {
            attributes.push(r.str()?.to_string());
        }
        Ok(Schema { name, attributes })
    }
}

impl SchemaRegistry {
    /// Append the binary encoding of the whole registry, preserving the
    /// dense [`TypeId`] assignment.
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.len() as u32);
        for (_, s) in self.iter() {
            s.encode(out);
        }
    }

    /// Decode a registry encoded by [`SchemaRegistry::encode`]. Ids are
    /// reassigned densely in encoding order, i.e. they round-trip.
    pub fn decode(r: &mut Reader<'_>) -> Result<SchemaRegistry, CodecError> {
        let n = r.seq_len(8)?;
        let mut reg = SchemaRegistry::new();
        for _ in 0..n {
            let s = Schema::decode(r)?;
            reg.register(s)
                .map_err(|e| CodecError(format!("duplicate schema in registry: {e}")))?;
        }
        Ok(reg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventBuilder;

    #[test]
    fn value_roundtrip() {
        let vals = [
            Value::Int(-42),
            Value::Float(3.5),
            Value::Float(-0.0),
            Value::from("IBM"),
            Value::Bool(true),
        ];
        let mut buf = Vec::new();
        for v in &vals {
            v.encode(&mut buf);
        }
        let mut r = Reader::new(&buf);
        for v in &vals {
            let got = Value::decode(&mut r).unwrap();
            // PartialEq on Value is numeric-coercing; check the bit pattern
            // for floats too.
            assert_eq!(&got, v);
            if let (Value::Float(a), Value::Float(b)) = (&got, v) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        assert!(r.is_empty());
    }

    #[test]
    fn event_roundtrip() {
        let mut reg = SchemaRegistry::new();
        reg.register_type("Stock", &["price", "company"]).unwrap();
        let e = EventBuilder::new(&reg, "Stock")
            .unwrap()
            .at(Time(99))
            .set("price", 101.5)
            .unwrap()
            .set("company", "IBM")
            .unwrap()
            .build();
        let mut buf = Vec::new();
        e.encode(&mut buf);
        let got = Event::decode(&mut Reader::new(&buf)).unwrap();
        assert_eq!(got, e);
        assert_eq!(got.time, Time(99));
    }

    #[test]
    fn registry_roundtrip_preserves_ids() {
        let mut reg = SchemaRegistry::new();
        reg.register_type("A", &["x", "y"]).unwrap();
        reg.register_type("B", &[]).unwrap();
        let mut buf = Vec::new();
        reg.encode(&mut buf);
        let got = SchemaRegistry::decode(&mut Reader::new(&buf)).unwrap();
        assert_eq!(got.type_id("A").unwrap(), reg.type_id("A").unwrap());
        assert_eq!(got.type_id("B").unwrap(), reg.type_id("B").unwrap());
        assert_eq!(got.schema(got.type_id("A").unwrap()).attributes, ["x", "y"]);
    }

    #[test]
    fn truncated_input_is_a_clean_error() {
        let mut buf = Vec::new();
        Value::from("hello").encode(&mut buf);
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            assert!(Value::decode(&mut r).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn bogus_lengths_rejected() {
        // A sequence claiming u32::MAX elements must not allocate/panic.
        let mut buf = Vec::new();
        put_u64(&mut buf, 1); // time
        put_u16(&mut buf, 0); // type
        put_u32(&mut buf, u32::MAX); // absurd attr count
        assert!(Event::decode(&mut Reader::new(&buf)).is_err());
    }

    #[test]
    fn unknown_tag_rejected() {
        let buf = [7u8, 0, 0, 0];
        assert!(Value::decode(&mut Reader::new(&buf)).is_err());
    }
}
