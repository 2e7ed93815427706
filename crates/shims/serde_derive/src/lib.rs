//! No-op `Serialize`/`Deserialize` derives for the offline serde shim.
//!
//! No workspace crate derives these traits any more (the score database
//! states its JSON form by hand in `tango::db`); the derives emit marker
//! impls and otherwise accept any input, including `#[serde(...)]`
//! attributes.

use proc_macro::{TokenStream, TokenTree};

/// Extracts the derived type's name from the item token stream: the
/// identifier following the first `struct` or `enum` keyword.
fn type_name(input: &TokenStream) -> Option<String> {
    let mut saw_kw = false;
    for tt in input.clone() {
        if let TokenTree::Ident(id) = tt {
            let s = id.to_string();
            if saw_kw {
                return Some(s);
            }
            if s == "struct" || s == "enum" {
                saw_kw = true;
            }
        }
    }
    None
}

/// Counts generic parameters so the marker impl can name them. Only
/// simple lifetime/type parameter lists are supported; types with
/// generics get a trivially-empty expansion instead.
fn has_generics(input: &TokenStream) -> bool {
    let mut iter = input.clone().into_iter();
    let mut saw_kw = false;
    for tt in iter.by_ref() {
        if let TokenTree::Ident(id) = &tt {
            let s = id.to_string();
            if saw_kw {
                break;
            }
            if s == "struct" || s == "enum" {
                saw_kw = true;
            }
        }
    }
    matches!(iter.next(), Some(TokenTree::Punct(p)) if p.as_char() == '<')
}

fn marker_impl(input: TokenStream, trait_name: &str) -> TokenStream {
    match type_name(&input) {
        Some(name) if !has_generics(&input) => format!("impl serde::{trait_name} for {name} {{}}")
            .parse()
            .unwrap(),
        _ => TokenStream::new(),
    }
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    marker_impl(input, "Serialize")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    marker_impl(input, "Deserialize")
}
