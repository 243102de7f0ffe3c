//! Oracle property test for the direct wire writer.
//!
//! [`Expr::fingerprint`], [`Expr::write_wire`] and [`Expr::wire_size`]
//! write (or count) the compact XML form of an expression without
//! building a tree. The tree-building [`Expr::to_xml`] is the oracle:
//! for every generated expression the writer must produce exactly its
//! serialization, and the counted size exactly its serialized size.
//!
//! The generator only has to serialize, not evaluate, so it reaches
//! every constructor and the edge cases the evaluating generator in
//! `prop_expr.rs` cannot: code shipping, sends to node lists and new
//! documents, service calls with parameters and forward lists, empty
//! sequences and argument lists, multi-digit peer and node indexes,
//! markup characters in names, attribute values and text, and queries
//! built by `Query::from_plan` and `Query::compose`.

use axml_core::prelude::*;
use axml_xml::ids::NodeAddr;
use axml_xml::tree::{NodeId, Tree};
use proptest::prelude::*;

/// Strings that exercise every escape (and the empty string).
fn tricky() -> impl Strategy<Value = String> {
    const TRICKY: &[&str] = &["plain", "a&b", "<tag>", "q\"uote", "apos'", "&<>\"'", ""];
    (0..TRICKY.len()).prop_map(|i| TRICKY[i].to_string())
}

/// Peers with one-, two- and three-digit indexes.
fn peer() -> impl Strategy<Value = PeerId> {
    const PEERS: &[u32] = &[0, 1, 2, 9, 10, 12, 123];
    (0..PEERS.len()).prop_map(|i| PeerId(PEERS[i]))
}

fn peer_ref() -> impl Strategy<Value = PeerRef> {
    prop_oneof![Just(PeerRef::Any), peer().prop_map(PeerRef::At)]
}

fn addr() -> impl Strategy<Value = NodeAddr> {
    const NODES: &[usize] = &[0, 7, 10, 4096];
    (peer(), tricky(), 0..NODES.len())
        .prop_map(|(p, doc, i)| NodeAddr::new(p, doc, NodeId::from_index(NODES[i]).unwrap()))
}

/// Literal trees with markup characters in attribute values and text,
/// empty text nodes, empty elements, and a tree whose root is text.
fn literal() -> impl Strategy<Value = Tree> {
    (tricky(), tricky(), 0usize..4).prop_map(|(attr, text, shape)| {
        let mut t = Tree::new("lit");
        let root = t.root();
        match shape {
            0 => {
                t.set_attr(root, "k", attr).unwrap();
                t.add_text(root, text);
                t
            }
            1 => {
                let v = t.add_element(root, "v");
                t.set_attr(v, "a", attr).unwrap();
                t.set_attr(v, "b", "2").unwrap();
                t.add_text(v, text);
                t.add_element(root, "empty");
                t
            }
            2 => t,
            _ => {
                let text_node = t.add_text(root, text);
                t.subtree(text_node).unwrap()
            }
        }
    })
}

const SOURCES: &[&str] = &[
    "$0//pkg",
    r#"doc("catalog")//pkg"#,
    r#"for $x in $0//pkg where $x/@name = "a&b<c>" return <big note="x&amp;y">{$x/@name}</big>"#,
    "for $x in $0//v where $x/text() < 3 return <got>{$x/text()}</got>",
];

/// Leaf queries under awkward names, `from_plan` queries (rewrites and
/// direct), and compositions.
fn query() -> impl Strategy<Value = Query> {
    (tricky(), 0..SOURCES.len(), 0usize..5).prop_map(|(name, src, how)| {
        let leaf = Query::parse(name.as_str(), SOURCES[src]).unwrap();
        let selective = Query::parse("sel", SOURCES[2]).unwrap();
        match how {
            0 => leaf,
            1 => Query::from_plan(name.as_str(), leaf.plan().unwrap().clone()),
            2 => selective.decompose_selection().unwrap().0,
            3 => {
                let (outer, pushed) = selective.decompose_selection().unwrap();
                Query::compose(name.as_str(), outer, vec![pushed]).unwrap()
            }
            _ => {
                let pair = Query::parse(
                    "pair",
                    "for $x in $0//pkg for $y in $1//pkg return <p>{$x/@name}</p>",
                )
                .unwrap();
                let inner =
                    Query::compose("inner", Query::parse("o", "$0").unwrap(), vec![leaf]).unwrap();
                Query::compose(name.as_str(), pair, vec![inner, selective]).unwrap()
            }
        }
    })
}

fn arb_wire_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (tricky(), peer_ref()).prop_map(|(name, at)| Expr::Doc {
            name: name.into(),
            at,
        }),
        (literal(), peer()).prop_map(|(tree, at)| Expr::Tree { tree, at }),
        (peer(), query(), peer(), tricky()).prop_map(|(to, q, def_at, as_service)| {
            Expr::Deploy {
                to,
                query: LocatedQuery::new(q, def_at),
                as_service: as_service.into(),
            }
        }),
        (query(), peer()).prop_map(|(q, def_at)| Expr::Apply {
            query: LocatedQuery::new(q, def_at),
            args: vec![],
        }),
        Just(Expr::Seq(vec![])),
    ];
    leaf.prop_recursive(4, 24, 3, |inner| {
        let dest = prop_oneof![
            peer().prop_map(SendDest::Peer),
            proptest::collection::vec(addr(), 1..3).prop_map(SendDest::Nodes),
            (peer(), tricky()).prop_map(|(peer, name)| SendDest::NewDoc {
                peer,
                name: name.into(),
            }),
        ];
        prop_oneof![
            (
                query(),
                peer(),
                proptest::collection::vec(inner.clone(), 0..3)
            )
                .prop_map(|(q, def_at, args)| Expr::Apply {
                    query: LocatedQuery::new(q, def_at),
                    args,
                }),
            (dest, inner.clone()).prop_map(|(dest, payload)| Expr::Send {
                dest,
                payload: Box::new(payload),
            }),
            (
                peer_ref(),
                tricky(),
                proptest::collection::vec(inner.clone(), 0..3),
                proptest::collection::vec(addr(), 0..3),
            )
                .prop_map(|(provider, service, params, forward)| Expr::Sc {
                    provider,
                    service: service.into(),
                    params,
                    forward,
                }),
            (peer(), inner.clone()).prop_map(|(peer, e)| Expr::EvalAt {
                peer,
                expr: Box::new(e),
            }),
            proptest::collection::vec(inner, 0..3).prop_map(Expr::Seq),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The writer is byte-identical to the tree serialization, appends
    /// without touching what is already in the buffer, and the counted
    /// size is the serialized size.
    #[test]
    fn writer_matches_tree_oracle(e in arb_wire_expr()) {
        let oracle = e.to_xml();
        let text = oracle.serialize();
        prop_assert_eq!(e.fingerprint(), text.as_str());
        prop_assert_eq!(e.wire_size(), oracle.serialized_size());
        prop_assert_eq!(e.wire_size(), text.len());
        let mut buf = String::from("<prefix/>");
        e.write_wire(&mut buf);
        prop_assert_eq!(buf, format!("<prefix/>{text}"));
    }
}
