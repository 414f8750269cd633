//! Wire format of engine messages.
//!
//! Message *sizes* drive the network accounting in [`crate::cost`]; this
//! module pins the encoding down so the byte counts in the reports are
//! grounded in a real serialization rather than a guessed constant. The
//! engine never materializes per-message buffers in the hot loop (that
//! would simulate a cluster at the speed of one), but the encoding here
//! is exactly what it *would* put on the wire, and the unit tests keep
//! `encoded_len` and the actual encoder in lockstep.

/// Kinds of engine messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageKind {
    /// Mirror → master gather partial.
    GatherPartial = 0,
    /// Master → mirror vertex-data update.
    VertexUpdate = 1,
}

/// Fixed per-message header: kind (1) + iteration (4) + vertex id (4) +
/// payload length (4) = 13 bytes, padded to 16 for alignment like most
/// RPC framings.
pub const HEADER_BYTES: usize = 16;

/// Encodes a message with the given payload; used by tests and by any
/// future real-transport backend.
pub fn encode(kind: MessageKind, iteration: u32, vertex: u32, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_BYTES + payload.len());
    buf.push(kind as u8);
    buf.extend_from_slice(&iteration.to_be_bytes());
    buf.extend_from_slice(&vertex.to_be_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    buf.resize(HEADER_BYTES, 0); // padding
    buf.extend_from_slice(payload);
    buf
}

/// Size in bytes of an encoded message with `payload_len` payload bytes.
pub const fn encoded_len(payload_len: usize) -> usize {
    HEADER_BYTES + payload_len
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoded_len_matches_encoder() {
        for payload_len in [0usize, 4, 8, 64] {
            let payload = vec![0xABu8; payload_len];
            let msg = encode(MessageKind::GatherPartial, 3, 42, &payload);
            assert_eq!(msg.len(), encoded_len(payload_len));
        }
    }

    #[test]
    fn header_contains_fields() {
        let msg = encode(MessageKind::VertexUpdate, 7, 99, &[1, 2, 3, 4]);
        assert_eq!(msg[0], MessageKind::VertexUpdate as u8);
        assert_eq!(u32::from_be_bytes(msg[1..5].try_into().unwrap()), 7);
        assert_eq!(u32::from_be_bytes(msg[5..9].try_into().unwrap()), 99);
        assert_eq!(u32::from_be_bytes(msg[9..13].try_into().unwrap()), 4);
        assert_eq!(&msg[HEADER_BYTES..], &[1, 2, 3, 4]);
    }
}
