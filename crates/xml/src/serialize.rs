//! Serialization of trees back to XML text, plus wire-size accounting.
//!
//! Two renderings are provided: a *compact* form (no insignificant
//! whitespace — this is what crosses the simulated network, and what the
//! cost model measures) and a *pretty* form for humans. The
//! [`Tree::serialized_size`] method computes the compact size **without
//! allocating the string**, because the optimizer's cost model calls it on
//! every candidate data transfer.

use crate::escape::{escaped_attr_len, escaped_text_len, push_escaped_attr, push_escaped_text};
use crate::tree::{NodeId, NodeKind, Tree};

impl Tree {
    /// Serialize the subtree rooted at `id` compactly.
    pub fn serialize_node(&self, id: NodeId) -> String {
        let mut out = String::with_capacity(self.serialized_size_node(id));
        self.serialize_into(id, &mut out);
        out
    }

    /// Append the compact serialization of the subtree rooted at `id` to
    /// `out` (the streaming form of [`Tree::serialize_node`], for writers
    /// that embed a tree in a larger document).
    pub fn serialize_into(&self, id: NodeId, out: &mut String) {
        match &self.node(id).kind {
            NodeKind::Text(t) => push_escaped_text(out, t),
            NodeKind::Element { label, attrs } => {
                out.push('<');
                out.push_str(label.as_str());
                for (n, v) in attrs {
                    out.push(' ');
                    out.push_str(n.as_str());
                    out.push_str("=\"");
                    push_escaped_attr(out, v);
                    out.push('"');
                }
                let children = self.children(id);
                if children.is_empty() {
                    out.push_str("/>");
                } else {
                    out.push('>');
                    for &c in children {
                        self.serialize_into(c, out);
                    }
                    out.push_str("</");
                    out.push_str(label.as_str());
                    out.push('>');
                }
            }
        }
    }

    /// Serialize the whole tree compactly.
    pub fn serialize(&self) -> String {
        self.serialize_node(self.root())
    }

    /// Serialize the subtree rooted at `id` with indentation, for humans.
    pub fn pretty_node(&self, id: NodeId) -> String {
        let mut out = String::new();
        self.write_pretty(id, 0, &mut out);
        out
    }

    /// Pretty-print the whole tree.
    pub fn pretty(&self) -> String {
        self.pretty_node(self.root())
    }

    /// Exact byte length of [`Tree::serialize_node`], computed without
    /// building the string. This is the wire size used by the cost model.
    pub fn serialized_size_node(&self, id: NodeId) -> usize {
        match &self.node(id).kind {
            NodeKind::Text(t) => escaped_text_len(t),
            NodeKind::Element { label, attrs } => {
                let name = label.len();
                let attrs_len: usize = attrs
                    .iter()
                    // space + name + ="..."
                    .map(|(n, v)| 1 + n.len() + 2 + escaped_attr_len(v) + 1)
                    .sum();
                let children = self.children(id);
                if children.is_empty() {
                    // <name attrs/>
                    1 + name + attrs_len + 2
                } else {
                    // <name attrs> + children + </name>
                    let inner: usize = children.iter().map(|&c| self.serialized_size_node(c)).sum();
                    (1 + name + attrs_len + 1) + inner + (2 + name + 1)
                }
            }
        }
    }

    /// Wire size of the whole tree.
    pub fn serialized_size(&self) -> usize {
        self.serialized_size_node(self.root())
    }

    fn write_pretty(&self, id: NodeId, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth);
        match &self.node(id).kind {
            NodeKind::Text(t) => {
                out.push_str(&pad);
                push_escaped_text(out, t);
                out.push('\n');
            }
            NodeKind::Element { label, attrs } => {
                out.push_str(&pad);
                out.push('<');
                out.push_str(label.as_str());
                for (n, v) in attrs {
                    out.push(' ');
                    out.push_str(n.as_str());
                    out.push_str("=\"");
                    push_escaped_attr(out, v);
                    out.push('"');
                }
                let children = self.children(id);
                if children.is_empty() {
                    out.push_str("/>\n");
                } else if children.iter().any(|&c| !self.node(c).is_element()) {
                    // Mixed or text content: render the whole subtree
                    // compactly so indentation never pollutes text nodes.
                    out.push('>');
                    for &c in children {
                        self.serialize_into(c, out);
                    }
                    out.push_str("</");
                    out.push_str(label.as_str());
                    out.push_str(">\n");
                } else {
                    out.push_str(">\n");
                    for &c in children {
                        self.write_pretty(c, depth + 1, out);
                    }
                    out.push_str(&pad);
                    out.push_str("</");
                    out.push_str(label.as_str());
                    out.push_str(">\n");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_roundtrip_shape() {
        let mut t = Tree::new("a");
        let r = t.root();
        t.set_attr(r, "k", "v\"w").unwrap();
        let b = t.add_element(r, "b");
        t.add_text(b, "x<y");
        t.add_element(r, "c");
        assert_eq!(t.serialize(), r#"<a k="v&quot;w"><b>x&lt;y</b><c/></a>"#);
    }

    #[test]
    fn size_matches_serialization() {
        let mut t = Tree::new("root");
        let r = t.root();
        t.set_attr(r, "id", "1&2").unwrap();
        let child = t.add_element(r, "child");
        t.add_text(child, "some > text & more");
        t.add_element(r, "empty");
        assert_eq!(t.serialized_size(), t.serialize().len());
        assert_eq!(t.serialized_size_node(child), t.serialize_node(child).len());
    }

    #[test]
    fn pretty_is_indented() {
        let mut t = Tree::new("a");
        let r = t.root();
        t.add_text_element(r, "b", "hi");
        let p = t.pretty();
        assert!(p.contains("<a>\n"), "{p}");
        assert!(p.contains("  <b>hi</b>\n"), "{p}");
        assert!(p.ends_with("</a>\n"), "{p}");
    }

    #[test]
    fn pretty_empty_element() {
        let t = Tree::new("solo");
        assert_eq!(t.pretty(), "<solo/>\n");
    }
}
