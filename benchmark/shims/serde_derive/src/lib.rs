//! `#[derive(Serialize, Deserialize)]` for the serde shim, written against
//! `proc_macro` alone (no `syn`, no `quote`): the input is walked token by
//! token and the impl is assembled as source text.
//!
//! Supported, because the repository uses it: structs with named fields,
//! newtype and tuple structs, enums with unit / newtype / struct variants;
//! container attributes `tag`, `tag` + `content`, `untagged`; field
//! attributes `default`, `skip_serializing_if`, `with`. Anything else
//! (generics, renames, flatten) is a compile error naming what is missing,
//! not a silent misencoding.

use proc_macro::{Delimiter, TokenStream, TokenTree};
use std::fmt::Write;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, ser::expand)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, de::expand)
}

fn expand(input: TokenStream, generate: fn(&Item) -> String) -> TokenStream {
    let source = match parse_item(input) {
        Ok(item) => generate(&item),
        Err(msg) => format!("compile_error!({msg:?});"),
    };
    source.parse().expect("generated impl is valid Rust")
}

/// How an enum names its variant on the wire.
enum Tagging {
    /// `"Variant"` or `{"Variant": ...}`.
    External,
    /// `{"<tag>": "Variant", ...fields}`.
    Internal(String),
    /// `{"<tag>": "Variant", "<content>": ...}`.
    Adjacent(String, String),
    /// The bare payload; the first variant that fits wins.
    Untagged,
}

struct Item {
    name: String,
    tagging: Tagging,
    body: Body,
}

enum Body {
    Struct(Fields),
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    fields: Fields,
}

enum Fields {
    Unit,
    /// Positional fields, by type.
    Tuple(Vec<String>),
    Named(Vec<Field>),
}

struct Field {
    name: String,
    ty: String,
    default: bool,
    skip_serializing_if: Option<String>,
    with: Option<String>,
}

/// `key` or `key = "value"` entries of every `#[serde(...)]` among `attrs`.
type SerdeArgs = Vec<(String, Option<String>)>;

/// Consume leading `#[...]` attributes from `tokens[*at..]`, returning the
/// serde arguments among them.
fn take_attrs(tokens: &[TokenTree], at: &mut usize) -> Result<SerdeArgs, String> {
    let mut args = Vec::new();
    while let Some(TokenTree::Punct(p)) = tokens.get(*at) {
        if p.as_char() != '#' {
            break;
        }
        let Some(TokenTree::Group(group)) = tokens.get(*at + 1) else {
            return Err("expected `[...]` after `#`".into());
        };
        *at += 2;
        let inner: Vec<TokenTree> = group.stream().into_iter().collect();
        let is_serde =
            matches!(inner.first(), Some(TokenTree::Ident(i)) if i.to_string() == "serde");
        if let (true, Some(TokenTree::Group(list))) = (is_serde, inner.get(1)) {
            parse_serde_args(list.stream(), &mut args)?;
        }
    }
    Ok(args)
}

fn parse_serde_args(stream: TokenStream, out: &mut SerdeArgs) -> Result<(), String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    for entry in tokens.split(|t| matches!(t, TokenTree::Punct(p) if p.as_char() == ',')) {
        match entry {
            [] => {}
            [TokenTree::Ident(key)] => out.push((key.to_string(), None)),
            [TokenTree::Ident(key), TokenTree::Punct(eq), TokenTree::Literal(lit)]
                if eq.as_char() == '=' =>
            {
                let lit = lit.to_string();
                let value = lit
                    .strip_prefix('"')
                    .and_then(|s| s.strip_suffix('"'))
                    .ok_or_else(|| format!("serde shim: `{key}` wants a plain string literal"))?;
                out.push((key.to_string(), Some(value.to_string())));
            }
            _ => return Err("serde shim: unsupported #[serde(...)] syntax".into()),
        }
    }
    Ok(())
}

/// Skip `pub`, `pub(crate)`, `pub(in path)`.
fn skip_visibility(tokens: &[TokenTree], at: &mut usize) {
    if matches!(tokens.get(*at), Some(TokenTree::Ident(i)) if i.to_string() == "pub") {
        *at += 1;
        if matches!(tokens.get(*at), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            *at += 1;
        }
    }
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut at = 0;
    let args = take_attrs(&tokens, &mut at)?;
    skip_visibility(&tokens, &mut at);
    let keyword = match tokens.get(at) {
        Some(TokenTree::Ident(i)) => i.to_string(),
        _ => return Err("serde shim: expected `struct` or `enum`".into()),
    };
    let name = match tokens.get(at + 1) {
        Some(TokenTree::Ident(i)) => i.to_string(),
        _ => return Err("serde shim: expected a type name".into()),
    };
    at += 2;
    if matches!(tokens.get(at), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "serde shim: generic type `{name}` is not supported"
        ));
    }

    let mut tag = None;
    let mut content = None;
    let mut untagged = false;
    for (key, value) in args {
        match (key.as_str(), value) {
            ("tag", Some(v)) => tag = Some(v),
            ("content", Some(v)) => content = Some(v),
            ("untagged", None) => untagged = true,
            (other, _) => {
                return Err(format!(
                    "serde shim: container attribute `{other}` is not supported"
                ))
            }
        }
    }
    let tagging = match (tag, content, untagged) {
        (None, None, false) => Tagging::External,
        (Some(t), None, false) => Tagging::Internal(t),
        (Some(t), Some(c), false) => Tagging::Adjacent(t, c),
        (None, None, true) => Tagging::Untagged,
        _ => return Err("serde shim: conflicting enum representation attributes".into()),
    };

    let body = match (keyword.as_str(), tokens.get(at)) {
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Body::Struct(Fields::Named(parse_named_fields(g.stream())?))
        }
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Parenthesis => {
            Body::Struct(Fields::Tuple(parse_tuple_fields(g.stream())?))
        }
        ("struct", _) => Body::Struct(Fields::Unit),
        ("enum", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Body::Enum(parse_variants(g.stream())?)
        }
        _ => return Err(format!("serde shim: cannot derive for `{keyword} {name}`")),
    };
    if matches!(body, Body::Struct(_)) && !matches!(tagging, Tagging::External) {
        return Err("serde shim: tagging attributes on a struct are not supported".into());
    }
    Ok(Item {
        name,
        tagging,
        body,
    })
}

/// Split on commas that are outside every `<...>`; brackets, braces and
/// parentheses arrive as single `Group` tokens already.
fn split_top_level(stream: TokenStream) -> Vec<Vec<TokenTree>> {
    let mut parts = vec![Vec::new()];
    let mut angle_depth = 0usize;
    let mut previous = ' ';
    for token in stream {
        let ch = match &token {
            TokenTree::Punct(p) => p.as_char(),
            _ => ' ',
        };
        match ch {
            '<' => angle_depth += 1,
            // `->` closes nothing.
            '>' if previous != '-' => angle_depth = angle_depth.saturating_sub(1),
            ',' if angle_depth == 0 => {
                parts.push(Vec::new());
                previous = ch;
                continue;
            }
            _ => {}
        }
        previous = ch;
        parts.last_mut().expect("starts non-empty").push(token);
    }
    if parts.last().is_some_and(Vec::is_empty) {
        parts.pop();
    }
    parts
}

fn tokens_to_string(tokens: &[TokenTree]) -> String {
    tokens.iter().cloned().collect::<TokenStream>().to_string()
}

fn parse_named_fields(stream: TokenStream) -> Result<Vec<Field>, String> {
    let mut fields = Vec::new();
    for part in split_top_level(stream) {
        let mut at = 0;
        let args = take_attrs(&part, &mut at)?;
        skip_visibility(&part, &mut at);
        let name = match part.get(at) {
            Some(TokenTree::Ident(i)) => i.to_string(),
            _ => return Err("serde shim: expected a field name".into()),
        };
        if !matches!(part.get(at + 1), Some(TokenTree::Punct(p)) if p.as_char() == ':') {
            return Err(format!("serde shim: expected `:` after field `{name}`"));
        }
        let mut field = Field {
            name,
            ty: tokens_to_string(&part[at + 2..]),
            default: false,
            skip_serializing_if: None,
            with: None,
        };
        for (key, value) in args {
            match (key.as_str(), value) {
                ("default", None) => field.default = true,
                ("skip_serializing_if", Some(v)) => field.skip_serializing_if = Some(v),
                ("with", Some(v)) => field.with = Some(v),
                (other, _) => {
                    return Err(format!(
                        "serde shim: field attribute `{other}` is not supported"
                    ))
                }
            }
        }
        fields.push(field);
    }
    Ok(fields)
}

fn parse_tuple_fields(stream: TokenStream) -> Result<Vec<String>, String> {
    let mut types = Vec::new();
    for part in split_top_level(stream) {
        let mut at = 0;
        if !take_attrs(&part, &mut at)?.is_empty() {
            return Err("serde shim: attributes on tuple fields are not supported".into());
        }
        skip_visibility(&part, &mut at);
        types.push(tokens_to_string(&part[at..]));
    }
    Ok(types)
}

fn parse_variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    let mut variants = Vec::new();
    for part in split_top_level(stream) {
        let mut at = 0;
        if !take_attrs(&part, &mut at)?.is_empty() {
            return Err("serde shim: attributes on variants are not supported".into());
        }
        let name = match part.get(at) {
            Some(TokenTree::Ident(i)) => i.to_string(),
            _ => return Err("serde shim: expected a variant name".into()),
        };
        let fields = match part.get(at + 1) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Fields::Named(parse_named_fields(g.stream())?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Fields::Tuple(parse_tuple_fields(g.stream())?)
            }
            // A bare name, or `Name = discriminant`.
            _ => Fields::Unit,
        };
        variants.push(Variant { name, fields });
    }
    Ok(variants)
}

mod ser {
    use super::*;

    pub fn expand(item: &Item) -> String {
        let name = &item.name;
        let body = match &item.body {
            Body::Struct(Fields::Named(fields)) => {
                let mut s = String::from("let mut __m = __s.serialize_map(None)?;\n");
                entries(&mut s, fields, |f| format!("&self.{f}"));
                s + "__m.end()"
            }
            Body::Struct(Fields::Tuple(types)) if types.len() == 1 => {
                "::serde::Serialize::serialize(&self.0, __s)".to_string()
            }
            Body::Struct(Fields::Tuple(types)) => {
                let mut s = String::from("let mut __q = __s.serialize_seq(None)?;\n");
                for i in 0..types.len() {
                    writeln!(s, "__q.serialize_element(&self.{i})?;").unwrap();
                }
                s + "__q.end()"
            }
            Body::Struct(Fields::Unit) => "__s.serialize_unit()".to_string(),
            Body::Enum(variants) => {
                let mut s = String::from("match self {\n");
                for v in variants {
                    variant_arm(&mut s, name, &item.tagging, v);
                }
                s + "}"
            }
        };
        format!(
            "#[automatically_derived]
            impl ::serde::Serialize for {name} {{
                fn serialize<__S: ::serde::Serializer>(&self, __s: __S)
                    -> ::core::result::Result<__S::Ok, __S::Error>
                {{
                    #[allow(unused_imports)]
                    use ::serde::ser::{{SerializeMap as _, SerializeSeq as _}};
                    {body}
                }}
            }}"
        )
    }

    /// `__m.serialize_entry(...)` for each field; `access` turns a field
    /// name into an expression of type `&FieldType`.
    fn entries(out: &mut String, fields: &[Field], access: impl Fn(&str) -> String) {
        for f in fields {
            let (key, value) = (&f.name, access(&f.name));
            let entry = match &f.with {
                None => format!("__m.serialize_entry({key:?}, {value})?;"),
                // `with` functions take a serializer, entries take a
                // value: adapt with a one-off wrapper, as the real derive does.
                Some(module) => format!(
                    "{{
                        struct __With<'a>(&'a {ty});
                        impl ::serde::Serialize for __With<'_> {{
                            fn serialize<__S2: ::serde::Serializer>(&self, __s2: __S2)
                                -> ::core::result::Result<__S2::Ok, __S2::Error>
                            {{
                                {module}::serialize(self.0, __s2)
                            }}
                        }}
                        __m.serialize_entry({key:?}, &__With({value}))?;
                    }}",
                    ty = f.ty
                ),
            };
            match &f.skip_serializing_if {
                None => writeln!(out, "{entry}").unwrap(),
                Some(skip) => writeln!(out, "if !{skip}({value}) {{ {entry} }}").unwrap(),
            }
        }
    }

    fn variant_arm(out: &mut String, ty: &str, tagging: &Tagging, v: &Variant) {
        let vname = &v.name;
        // Pattern binding every field by reference, and the payload as a
        // serializable expression where the representation needs one.
        let pattern = match &v.fields {
            Fields::Unit => format!("{ty}::{vname}"),
            Fields::Tuple(types) => {
                let binds: Vec<String> = (0..types.len()).map(|i| format!("__f{i}")).collect();
                format!("{ty}::{vname}({})", binds.join(", "))
            }
            Fields::Named(fields) => {
                let binds: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                format!("{ty}::{vname} {{ {} }}", binds.join(", "))
            }
        };
        writeln!(out, "{pattern} => {{").unwrap();
        match (tagging, &v.fields) {
            (Tagging::External, Fields::Unit) => {
                writeln!(out, "__s.serialize_str({vname:?})").unwrap();
            }
            (Tagging::External, fields) => {
                writeln!(out, "let mut __o = __s.serialize_map(Some(1))?;").unwrap();
                writeln!(
                    out,
                    "__o.serialize_entry({vname:?}, &{})?;\n__o.end()",
                    payload_expr(fields)
                )
                .unwrap();
            }
            (Tagging::Internal(tag), Fields::Unit) => {
                writeln!(
                    out,
                    "let mut __m = __s.serialize_map(Some(1))?;
                    __m.serialize_entry({tag:?}, {vname:?})?;
                    __m.end()"
                )
                .unwrap();
            }
            (Tagging::Internal(tag), Fields::Named(fields)) => {
                writeln!(
                    out,
                    "let mut __m = __s.serialize_map(None)?;
                    __m.serialize_entry({tag:?}, {vname:?})?;"
                )
                .unwrap();
                entries(out, fields, |f| f.to_string());
                writeln!(out, "__m.end()").unwrap();
            }
            (Tagging::Internal(_), Fields::Tuple(_)) => {
                writeln!(
                    out,
                    "compile_error!(\"serde shim: tuple variants cannot be internally tagged\")"
                )
                .unwrap();
            }
            (Tagging::Adjacent(tag, content), fields) => {
                writeln!(
                    out,
                    "let mut __o = __s.serialize_map(None)?;
                    __o.serialize_entry({tag:?}, {vname:?})?;"
                )
                .unwrap();
                if !matches!(fields, Fields::Unit) {
                    writeln!(
                        out,
                        "__o.serialize_entry({content:?}, &{})?;",
                        payload_expr(fields)
                    )
                    .unwrap();
                }
                writeln!(out, "__o.end()").unwrap();
            }
            (Tagging::Untagged, Fields::Unit) => {
                writeln!(out, "__s.serialize_unit()").unwrap();
            }
            (Tagging::Untagged, fields) => {
                writeln!(
                    out,
                    "::serde::Serialize::serialize(&{}, __s)",
                    payload_expr(fields)
                )
                .unwrap();
            }
        }
        writeln!(out, "}}").unwrap();
    }

    /// An expression that serializes as the variant's payload, given the
    /// bindings `variant_arm`'s pattern introduced.
    fn payload_expr(fields: &Fields) -> String {
        match fields {
            Fields::Unit => "()".to_string(),
            Fields::Tuple(types) if types.len() == 1 => "__f0".to_string(),
            Fields::Tuple(types) => {
                let binds: Vec<String> = (0..types.len()).map(|i| format!("__f{i}")).collect();
                format!("({},)", binds.join(", "))
            }
            Fields::Named(fields) => {
                // A local struct of references whose Serialize writes the
                // fields as a map.
                let mut decl = String::from("struct __Payload<'a> {");
                let mut init = String::from("__Payload {");
                for f in fields {
                    write!(decl, "{}: &'a {},", f.name, f.ty).unwrap();
                    write!(init, "{},", f.name).unwrap();
                }
                let mut body = String::from("let mut __m = __s.serialize_map(None)?;\n");
                entries(&mut body, fields, |f| format!("self.{f}"));
                format!(
                    "{{
                        {decl} }}
                        impl ::serde::Serialize for __Payload<'_> {{
                            fn serialize<__S: ::serde::Serializer>(&self, __s: __S)
                                -> ::core::result::Result<__S::Ok, __S::Error>
                            {{
                                {body}
                                __m.end()
                            }}
                        }}
                        {init} }}
                    }}"
                )
            }
        }
    }
}

mod de {
    use super::*;

    pub fn expand(item: &Item) -> String {
        let name = &item.name;
        let body = match &item.body {
            Body::Struct(fields) => {
                let from = fields_from_content(name, fields, &format!("struct {name}"));
                format!("let __c = __d.into_content()?;\n{from}")
            }
            Body::Enum(variants) => match &item.tagging {
                Tagging::External => external(name, variants),
                Tagging::Internal(tag) => internal(name, tag, variants),
                Tagging::Adjacent(tag, content) => adjacent(name, tag, content, variants),
                Tagging::Untagged => untagged(name, variants),
            },
        };
        format!(
            "#[automatically_derived]
            impl<'de> ::serde::Deserialize<'de> for {name} {{
                fn deserialize<__D: ::serde::Deserializer<'de>>(__d: __D)
                    -> ::core::result::Result<Self, __D::Error>
                {{
                    #[allow(unused_imports)]
                    use ::serde::de::Error as _;
                    {body}
                }}
            }}"
        )
    }

    /// An expression of type `Result<ctor, __D::Error>` building `ctor`'s
    /// fields from the `Content` bound to `__c`.
    fn fields_from_content(ctor: &str, fields: &Fields, expected: &str) -> String {
        match fields {
            Fields::Unit => format!(
                "match __c {{
                    ::serde::de::Content::Null => Ok({ctor}),
                    __other => Err(__D::Error::invalid_type(&__other, {expected:?})),
                }}"
            ),
            Fields::Tuple(types) if types.len() == 1 => format!(
                "::serde::de::from_content::<{}, __D::Error>(__c).map({ctor})",
                types[0]
            ),
            Fields::Tuple(types) => format!(
                "::serde::de::from_content::<({},), __D::Error>(__c).map(|__t| {ctor}({}))",
                types.join(", "),
                (0..types.len())
                    .map(|i| format!("__t.{i}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            Fields::Named(named) => format!(
                "{{
                    let __entries = ::serde::de::expect_map::<__D::Error>(__c, {expected:?})?;
                    {}
                }}",
                fields_from_entries(ctor, named)
            ),
        }
    }

    /// An expression of type `Result<ctor, __D::Error>` building a
    /// named-field `ctor` from the map entries bound to `__entries`.
    /// Unknown keys are ignored, as the real derive does by default.
    fn fields_from_entries(ctor: &str, fields: &[Field]) -> String {
        let mut slots = String::new();
        let mut arms = String::new();
        let mut build = String::new();
        for (i, f) in fields.iter().enumerate() {
            let (key, ty) = (&f.name, &f.ty);
            writeln!(
                slots,
                "let mut __v{i}: ::core::option::Option<{ty}> = None;"
            )
            .unwrap();
            let read = match &f.with {
                None => format!("::serde::de::from_content::<{ty}, __D::Error>(__value)?"),
                Some(module) => format!(
                    "{module}::deserialize(\
                        ::serde::de::ContentDeserializer::<__D::Error>::new(__value))?"
                ),
            };
            writeln!(arms, "{key:?} => __v{i} = Some({read}),").unwrap();
            let absent = if f.default {
                "::core::default::Default::default()".to_string()
            } else if f.with.is_some() {
                format!("return Err(__D::Error::missing_field({key:?}))")
            } else {
                format!("<{ty} as ::serde::Deserialize>::missing::<__D::Error>({key:?})?")
            };
            writeln!(
                build,
                "{key}: match __v{i} {{ Some(__x) => __x, None => {absent} }},"
            )
            .unwrap();
        }
        format!(
            "{{
                {slots}
                for (__key, __value) in __entries {{
                    match &*__key {{
                        {arms}
                        _ => {{}}
                    }}
                }}
                Ok({ctor} {{ {build} }})
            }}"
        )
    }

    fn external(name: &str, variants: &[Variant]) -> String {
        let mut unit_arms = String::new();
        let mut data_arms = String::new();
        for v in variants {
            let vname = &v.name;
            let ctor = format!("{name}::{vname}");
            match &v.fields {
                Fields::Unit => writeln!(unit_arms, "{vname:?} => Ok({ctor}),").unwrap(),
                fields => writeln!(
                    data_arms,
                    "{vname:?} => {},",
                    fields_from_content(&ctor, fields, &format!("variant {ctor}"))
                )
                .unwrap(),
            }
        }
        let of = format!("enum {name}");
        format!(
            "match __d.into_content()? {{
                ::serde::de::Content::Str(__name) => match &*__name {{
                    {unit_arms}
                    __other => Err(__D::Error::unknown_variant(__other, {of:?})),
                }},
                ::serde::de::Content::Map(mut __outer) if __outer.len() == 1 => {{
                    let (__name, __c) = __outer.pop().expect(\"length checked\");
                    match &*__name {{
                        {data_arms}
                        __other => Err(__D::Error::unknown_variant(__other, {of:?})),
                    }}
                }}
                __other => Err(__D::Error::invalid_type(&__other, {of:?})),
            }}"
        )
    }

    fn internal(name: &str, tag: &str, variants: &[Variant]) -> String {
        let mut arms = String::new();
        for v in variants {
            let vname = &v.name;
            let ctor = format!("{name}::{vname}");
            let build = match &v.fields {
                Fields::Unit => format!("Ok({ctor})"),
                Fields::Named(fields) => fields_from_entries(&ctor, fields),
                Fields::Tuple(_) => {
                    "compile_error!(\"serde shim: tuple variants cannot be internally tagged\")"
                        .to_string()
                }
            };
            writeln!(arms, "{vname:?} => {build},").unwrap();
        }
        let of = format!("enum {name}");
        format!(
            "let mut __entries = ::serde::de::expect_map::<__D::Error>(__d.into_content()?, {of:?})?;
            let __tag = ::serde::de::take_tag::<__D::Error>(&mut __entries, {tag:?})?;
            match &*__tag {{
                {arms}
                __other => Err(__D::Error::unknown_variant(__other, {of:?})),
            }}"
        )
    }

    fn adjacent(name: &str, tag: &str, content: &str, variants: &[Variant]) -> String {
        let mut arms = String::new();
        for v in variants {
            let vname = &v.name;
            let ctor = format!("{name}::{vname}");
            let build = match &v.fields {
                Fields::Unit => format!("Ok({ctor})"),
                fields => format!(
                    "match ::serde::de::take_entry(&mut __outer, {content:?}) {{
                        Some(__c) => {},
                        None => Err(__D::Error::missing_field({content:?})),
                    }}",
                    fields_from_content(&ctor, fields, &format!("variant {ctor}"))
                ),
            };
            writeln!(arms, "{vname:?} => {build},").unwrap();
        }
        let of = format!("enum {name}");
        format!(
            "let mut __outer = ::serde::de::expect_map::<__D::Error>(__d.into_content()?, {of:?})?;
            let __tag = ::serde::de::take_tag::<__D::Error>(&mut __outer, {tag:?})?;
            match &*__tag {{
                {arms}
                __other => Err(__D::Error::unknown_variant(__other, {of:?})),
            }}"
        )
    }

    fn untagged(name: &str, variants: &[Variant]) -> String {
        let mut attempts = String::new();
        for v in variants {
            let ctor = format!("{name}::{}", v.name);
            let attempt = fields_from_content(&ctor, &v.fields, "an untagged variant");
            // Each attempt consumes a copy; scalars and borrowed strings,
            // the only shapes the repository puts here, copy for free.
            writeln!(
                attempts,
                "{{
                    let __c = __content.clone();
                    let __attempt: ::core::result::Result<Self, __D::Error> = (|| {attempt})();
                    if let Ok(__value) = __attempt {{
                        return Ok(__value);
                    }}
                }}"
            )
            .unwrap();
        }
        format!(
            "let __content = __d.into_content()?;
            {attempts}
            Err(__D::Error::custom(\"data did not match any variant of untagged enum {name}\"))"
        )
    }
}
