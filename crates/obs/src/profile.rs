//! [`SpanNode`]: a span tree for per-query profiles — named timed nodes
//! with row counts and children, built directly by the instrumented code
//! that timed them. Building the tree from one set of measurements is what
//! lets a root's children sum exactly to it; separately clocked guards
//! could not promise that.

/// One node of a profile tree: a named timed operation, optionally with a
/// row count, containing the operations it invoked.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// Operation label (e.g. `scan(?p <authoredBy> ?a)`).
    pub name: String,
    /// Inclusive wall time of this node in nanoseconds (covers children).
    pub nanos: u64,
    /// Rows this operation produced (0 when not applicable).
    pub rows: u64,
    /// Nested operations, in execution order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// New leaf node.
    pub fn new(name: impl Into<String>, nanos: u64, rows: u64) -> SpanNode {
        SpanNode { name: name.into(), nanos, rows, children: Vec::new() }
    }

    /// Total inclusive time of the direct children.
    pub fn child_nanos(&self) -> u64 {
        self.children.iter().map(|c| c.nanos).sum()
    }

    /// Time spent in this node itself, excluding children (saturating:
    /// clock jitter can make children sum slightly past the parent).
    pub fn self_nanos(&self) -> u64 {
        self.nanos.saturating_sub(self.child_nanos())
    }

    /// Render the tree as indented text, one node per line:
    /// `name  <time> (rows)` with children beneath.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        let ms = self.nanos as f64 / 1e6;
        out.push_str(&"  ".repeat(depth));
        out.push_str(&self.name);
        out.push_str(&format!("  {ms:.3} ms"));
        if self.rows > 0 {
            out.push_str(&format!(" ({} rows)", self.rows));
        }
        out.push('\n');
        for c in &self.children {
            c.render_into(out, depth + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut root = SpanNode::new("root", 100, 0);
        root.children.push(SpanNode::new("a", 30, 10));
        root.children.push(SpanNode::new("b", 50, 0));
        assert_eq!(root.child_nanos(), 80);
        assert_eq!(root.self_nanos(), 20);
        let text = root.render();
        assert!(text.contains("root"));
        assert!(text.contains("(10 rows)"));
        assert!(text.lines().count() == 3);
    }
}
