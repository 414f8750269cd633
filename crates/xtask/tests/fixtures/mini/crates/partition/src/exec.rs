//! Fixture: the designated execution backend. Every channel payload
//! type must be pinned by a turbofish and audited in
//! tests/goldens/SEND_REGISTRY.

/// Format version of the Send registry this backend is audited
/// against; matches the `send-registry=` pin in SCHEMA_VERSIONS.
pub const SEND_REGISTRY_SCHEMA_VERSION: u32 = 1;

/// An audited payload: plain owned data.
pub struct RegisteredMsg(pub u32);

/// A payload nobody audited.
pub struct SecretMsg(pub u32);

/// Ships an audited payload over an explicitly typed channel — clean.
pub fn run_registered() {
    let (tx, rx) = crossbeam::channel::bounded::<RegisteredMsg>(1);
    std::thread::spawn(move || drop(rx));
    drop(tx);
}

/// Ships an unaudited payload type across a thread boundary.
pub fn run_unregistered() {
    let (tx, _rx) = crossbeam::channel::bounded::<SecretMsg>(1); // MARK-unregistered-send
    drop(tx);
}

/// Lets inference pick the payload — the registry cannot audit that.
pub fn run_untyped() {
    let (tx, _rx) = crossbeam::channel::unbounded(); // MARK-untyped-ctor
    tx.send(RegisteredMsg(1)).ok();
}
