//! Budgeted address-space traversal — the scanner's deepest probe
//! (§4/§5.4 of the paper).
//!
//! From `Objects`, the traversal walks all forward references
//! depth-first: it records each node the first time a Browse answer
//! names it, pushes it on a stack and browses the most recently pushed
//! node next, so the last reference of an answer is descended first.
//! Every node is recorded with its effective anonymous access rights
//! (`UserAccessLevel`, `UserExecutable`) and readable values are read.
//! The walk respects the paper's politeness budget: 500 ms between
//! requests (enforced by the client), 60 minutes and 50 MB per host.

use crate::client::UaClient;
use crate::error::ClientError;
use netsim::ByteStream;
use std::collections::HashSet;
use ua_types::{AttributeId, NodeClass, NodeId, Variant};

/// Traversal budget (Appendix A.2 of the paper).
#[derive(Debug, Clone, Copy)]
pub struct TraversalBudget {
    /// Maximum virtual time on one host, milliseconds (paper: 60 min).
    pub max_millis: u64,
    /// Maximum outgoing traffic, bytes (paper: 50 MB).
    pub max_tx_bytes: u64,
    /// Safety cap on visited nodes.
    pub max_nodes: usize,
}

impl Default for TraversalBudget {
    fn default() -> Self {
        TraversalBudget {
            max_millis: 60 * 60 * 1000,
            max_tx_bytes: 50 * 1024 * 1024,
            max_nodes: 100_000,
        }
    }
}

/// A node discovered during traversal.
#[derive(Debug, Clone, PartialEq)]
pub struct TraversedNode {
    /// The node id.
    pub node_id: NodeId,
    /// Browse name text.
    pub browse_name: String,
    /// Namespace index of the browse name.
    pub namespace_index: u16,
    /// Node class.
    pub node_class: NodeClass,
    /// Anonymous user may read (variables).
    pub readable: bool,
    /// Anonymous user may write (variables).
    pub writable: bool,
    /// Anonymous user may execute (methods).
    pub executable: bool,
    /// Value, when readable and read succeeded.
    pub value: Option<Variant>,
}

/// Result of traversing one host.
#[derive(Debug, Clone, Default)]
pub struct Traversal {
    /// All discovered nodes.
    pub nodes: Vec<TraversedNode>,
    /// True when a budget limit forced early disconnect.
    pub truncated: bool,
    /// Requests issued during traversal.
    pub requests: u64,
}

impl Traversal {
    /// Fractions of (readable, writable) variables and (executable)
    /// methods — the per-host data points of Figure 7.
    pub fn access_fractions(&self) -> (f64, f64, f64) {
        let variables: Vec<_> = self
            .nodes
            .iter()
            .filter(|n| n.node_class == NodeClass::Variable)
            .collect();
        let methods: Vec<_> = self
            .nodes
            .iter()
            .filter(|n| n.node_class == NodeClass::Method)
            .collect();
        let frac = |num: usize, den: usize| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        (
            frac(
                variables.iter().filter(|n| n.readable).count(),
                variables.len(),
            ),
            frac(
                variables.iter().filter(|n| n.writable).count(),
                variables.len(),
            ),
            frac(
                methods.iter().filter(|n| n.executable).count(),
                methods.len(),
            ),
        )
    }
}

/// Walks the address space of the connected, activated session.
pub fn traverse<S: ByteStream>(
    client: &mut UaClient<S>,
    budget: &TraversalBudget,
) -> Result<Traversal, ClientError> {
    let start_requests = client.requests_sent();
    let start_millis = client.clock().now_micros() / 1000;
    let start_tx = client.stats().tx_bytes;

    let mut out = Traversal::default();
    let mut stack: Vec<NodeId> = vec![NodeId::numeric(0, 85)]; // ObjectsFolder
    let mut seen: HashSet<NodeId> = stack.iter().cloned().collect();

    'walk: while let Some(node) = stack.pop() {
        // Budget checks before each request burst.
        let elapsed = client.clock().now_micros() / 1000 - start_millis;
        let tx = client.stats().tx_bytes - start_tx;
        if elapsed > budget.max_millis
            || tx > budget.max_tx_bytes
            || out.nodes.len() >= budget.max_nodes
        {
            out.truncated = true;
            break 'walk;
        }

        let mut result = client.browse(node, 0)?;
        loop {
            for reference in &result.references {
                let target = reference.node_id.node_id.clone();
                if !seen.insert(target.clone()) {
                    continue;
                }
                let mut record = TraversedNode {
                    node_id: target.clone(),
                    browse_name: reference.browse_name.name.clone().unwrap_or_default(),
                    namespace_index: reference.browse_name.namespace_index,
                    node_class: reference.node_class,
                    readable: false,
                    writable: false,
                    executable: false,
                    value: None,
                };
                match reference.node_class {
                    NodeClass::Variable => {
                        let values = client.read(vec![
                            (target.clone(), AttributeId::UserAccessLevel),
                            (target.clone(), AttributeId::Value),
                        ])?;
                        if let Some(Variant::Byte(level)) =
                            values.first().and_then(|dv| dv.value.clone())
                        {
                            record.readable = level & 0x01 != 0;
                            record.writable = level & 0x02 != 0;
                        }
                        if let Some(dv) = values.get(1) {
                            if dv.is_good() {
                                record.value = dv.value.clone();
                            }
                        }
                    }
                    NodeClass::Method => {
                        let values =
                            client.read(vec![(target.clone(), AttributeId::UserExecutable)])?;
                        if let Some(Variant::Boolean(x)) =
                            values.first().and_then(|dv| dv.value.clone())
                        {
                            record.executable = x;
                        }
                    }
                    _ => {}
                }
                out.nodes.push(record);
                stack.push(target);
            }
            match result.continuation_point.take() {
                Some(cp) => result = client.browse_next(cp)?,
                None => break,
            }
        }
    }

    out.requests = client.requests_sent() - start_requests;
    Ok(out)
}
