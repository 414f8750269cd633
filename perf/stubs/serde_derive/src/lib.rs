//! Stand-in for `serde_derive`: the derives accept `#[serde(..)]`
//! attributes and expand to nothing. The program crates only *derive*
//! the traits; nothing on the benchmarked path serializes.

use proc_macro::TokenStream;

/// No-op `#[derive(Serialize)]`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// No-op `#[derive(Deserialize)]`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
