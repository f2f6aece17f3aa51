//! The address-space store: browsing, reads, writes, calls — all
//! user-aware.
//!
//! Nodes live in one table in insertion order, and one `NodeId` →
//! index map finds them. References name their target by index, so a
//! browse reaches each target node without hashing its id again.

use crate::ids;
use crate::node::{Node, NodeAccess, Reference, UserClass};
use std::collections::HashMap;
use ua_types::{
    AttributeId, DataValue, Identifier, NodeClass, NodeId, QualifiedName, StatusCode, Variant,
};

/// An OPC UA address space: a table of [`Node`]s indexed by `u32` in
/// insertion order, one `NodeId` → index map, and the namespace
/// array. Iteration and browse order are insertion order, so both are
/// deterministic.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    namespaces: Vec<String>,
    nodes: Vec<Node>,
    index: HashMap<NodeId, u32>,
}

impl AddressSpace {
    /// Creates a space with the standard skeleton: Root, Objects, Types,
    /// Views, the Server object with `NamespaceArray` and
    /// `SoftwareVersion`, plus the given additional namespaces.
    pub fn new(extra_namespaces: &[&str], software_version: &str) -> Self {
        let mut namespaces = vec![ids::NS0_URI.to_string()];
        namespaces.extend(extra_namespaces.iter().map(|s| s.to_string()));
        let ns_array = Variant::Array(
            namespaces
                .iter()
                .map(|n| Variant::String(Some(n.clone())))
                .collect(),
        );

        let mut space = AddressSpace {
            namespaces,
            nodes: Vec::new(),
            index: HashMap::new(),
        };
        let ns0 = |id| NodeId::numeric(0, id);
        for (id, name) in [
            (ids::ROOT_FOLDER, "Root"),
            (ids::OBJECTS_FOLDER, "Objects"),
            (ids::TYPES_FOLDER, "Types"),
            (ids::VIEWS_FOLDER, "Views"),
        ] {
            space.insert(Node::object(
                ns0(id),
                QualifiedName::new(0, name),
                ids::TYPE_FOLDER,
            ));
        }
        for folder in [ids::OBJECTS_FOLDER, ids::TYPES_FOLDER, ids::VIEWS_FOLDER] {
            space.add_reference(&ns0(ids::ROOT_FOLDER), ids::REF_ORGANIZES, &ns0(folder));
        }

        // Server object with NamespaceArray and SoftwareVersion.
        space.insert(Node::object(
            ns0(ids::SERVER),
            QualifiedName::new(0, "Server"),
            0,
        ));
        space.add_reference(
            &ns0(ids::OBJECTS_FOLDER),
            ids::REF_ORGANIZES,
            &ns0(ids::SERVER),
        );
        space.insert(Node::variable(
            ns0(ids::SERVER_NAMESPACE_ARRAY),
            QualifiedName::new(0, "NamespaceArray"),
            ns_array,
            NodeAccess::read_only(),
        ));
        space.add_reference(
            &ns0(ids::SERVER),
            ids::REF_HAS_PROPERTY,
            &ns0(ids::SERVER_NAMESPACE_ARRAY),
        );
        space.insert(Node::object(
            ns0(ids::SERVER_STATUS),
            QualifiedName::new(0, "ServerStatus"),
            0,
        ));
        space.add_reference(
            &ns0(ids::SERVER),
            ids::REF_HAS_COMPONENT,
            &ns0(ids::SERVER_STATUS),
        );
        space.insert(Node::object(
            ns0(ids::SERVER_BUILD_INFO),
            QualifiedName::new(0, "BuildInfo"),
            0,
        ));
        space.add_reference(
            &ns0(ids::SERVER_STATUS),
            ids::REF_HAS_COMPONENT,
            &ns0(ids::SERVER_BUILD_INFO),
        );
        space.insert(Node::variable(
            ns0(ids::SERVER_SOFTWARE_VERSION),
            QualifiedName::new(0, "SoftwareVersion"),
            Variant::String(Some(software_version.to_string())),
            NodeAccess::read_only(),
        ));
        space.add_reference(
            &ns0(ids::SERVER_BUILD_INFO),
            ids::REF_HAS_PROPERTY,
            &ns0(ids::SERVER_SOFTWARE_VERSION),
        );
        space
    }

    /// The namespace array.
    pub fn namespaces(&self) -> &[String] {
        &self.namespaces
    }

    /// Inserts a node. A node replacing one with the same id keeps that
    /// node's index, and so its iteration position and the references
    /// other nodes hold to it; its own references are the new node's
    /// (none).
    pub fn insert(&mut self, node: Node) {
        match self.index.get(node.node_id()) {
            Some(&i) => self.nodes[i as usize] = node,
            None => {
                self.index
                    .insert(node.node_id().clone(), self.nodes.len() as u32);
                self.nodes.push(node);
            }
        }
    }

    /// Looks up a node.
    pub fn get(&self, id: &NodeId) -> Option<&Node> {
        self.index.get(id).map(|&i| &self.nodes[i as usize])
    }

    /// Looks up a node mutably, to change its value or access. Replace
    /// a whole node with [`Self::insert`]: the table keys the node by
    /// its id and keeps its references.
    pub fn get_mut(&mut self, id: &NodeId) -> Option<&mut Node> {
        self.index.get(id).map(|&i| &mut self.nodes[i as usize])
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when only… never: the skeleton always exists.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterates nodes in insertion order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter()
    }

    /// Adds a forward reference from `source` to `target` and its
    /// inverse on the target. Stores nothing when either node is
    /// missing: a reference names its target by index, so it cannot
    /// dangle.
    pub fn add_reference(&mut self, source: &NodeId, reference_type: u32, target: &NodeId) {
        let (Some(&s), Some(&t)) = (self.index.get(source), self.index.get(target)) else {
            return;
        };
        self.nodes[s as usize].references.push(Reference {
            reference_type,
            target: t,
            is_forward: true,
        });
        self.nodes[t as usize].references.push(Reference {
            reference_type,
            target: s,
            is_forward: false,
        });
    }

    /// Browses forward references of `id`: each reference's type (a
    /// namespace-0 numeric id) and target node, in insertion order, or
    /// `None` when `id` is unknown. Access control on browse: all users
    /// may browse the structure (matching common server behaviour;
    /// data protection happens at the attribute level).
    pub fn browse(&self, id: &NodeId) -> Option<impl Iterator<Item = (u32, &Node)>> {
        let node = self.get(id)?;
        Some(
            node.references
                .iter()
                .filter(|r| r.is_forward)
                .map(|r| (r.reference_type, &self.nodes[r.target as usize])),
        )
    }

    /// Shrinks every table to its length. A finished space never grows
    /// again (writes replace values in place), so the slack of its
    /// growth is waste.
    pub(crate) fn trim(&mut self) {
        self.namespaces.shrink_to_fit();
        self.nodes.shrink_to_fit();
        self.index.shrink_to_fit();
        for node in &mut self.nodes {
            node.references.shrink_to_fit();
        }
    }

    /// Bytes this space holds: the struct, the namespace array, the
    /// node table with what each node owns, and the id → index map.
    /// Each part is charged a fixed size plus the lengths of what it
    /// owns, not capacities or the toolchain's layouts, so the figure
    /// follows only the space's contents.
    pub fn resident_bytes(&self) -> usize {
        let namespaces: usize = self.namespaces.iter().map(|n| STRING_BYTES + n.len()).sum();
        let nodes: usize = self
            .nodes
            .iter()
            .map(|n| {
                // The map holds a second copy of the id.
                NODE_BYTES
                    + INDEX_ENTRY_BYTES
                    + 2 * id_heap_bytes(n.node_id())
                    + n.browse_name.name.as_ref().map_or(0, String::len)
                    + n.value.as_ref().map_or(0, value_heap_bytes)
                    + n.references.len() * REFERENCE_BYTES
            })
            .sum();
        SPACE_BYTES + namespaces + nodes
    }

    /// Reads one attribute as `user`.
    pub fn read_attribute(
        &self,
        id: &NodeId,
        attribute: AttributeId,
        user: &UserClass,
    ) -> DataValue {
        let Some(node) = self.get(id) else {
            return DataValue::error(StatusCode::BAD_NODE_ID_UNKNOWN);
        };
        match attribute {
            AttributeId::NodeId => DataValue::new(Variant::NodeId(node.node_id().clone())),
            AttributeId::BrowseName => {
                DataValue::new(Variant::QualifiedName(node.browse_name.clone()))
            }
            AttributeId::DisplayName => DataValue::new(Variant::LocalizedText(node.display_name())),
            AttributeId::NodeClass => DataValue::new(Variant::Int32(match node.node_class {
                NodeClass::Object => 1,
                NodeClass::Variable => 2,
                NodeClass::Method => 4,
                NodeClass::View => 128,
            })),
            AttributeId::Value => {
                if node.node_class != NodeClass::Variable {
                    return DataValue::error(StatusCode::BAD_ATTRIBUTE_ID_INVALID);
                }
                if !node.access.user_access_level(user).readable() {
                    return DataValue::error(StatusCode::BAD_NOT_READABLE);
                }
                DataValue::new(node.value.clone().unwrap_or(Variant::Empty))
            }
            AttributeId::AccessLevel => {
                if node.node_class != NodeClass::Variable {
                    return DataValue::error(StatusCode::BAD_ATTRIBUTE_ID_INVALID);
                }
                DataValue::new(Variant::Byte(node.access.access_level.0))
            }
            AttributeId::UserAccessLevel => {
                if node.node_class != NodeClass::Variable {
                    return DataValue::error(StatusCode::BAD_ATTRIBUTE_ID_INVALID);
                }
                DataValue::new(Variant::Byte(node.access.user_access_level(user).0))
            }
            AttributeId::Executable => {
                if node.node_class != NodeClass::Method {
                    return DataValue::error(StatusCode::BAD_ATTRIBUTE_ID_INVALID);
                }
                DataValue::new(Variant::Boolean(node.access.executable))
            }
            AttributeId::UserExecutable => {
                if node.node_class != NodeClass::Method {
                    return DataValue::error(StatusCode::BAD_ATTRIBUTE_ID_INVALID);
                }
                DataValue::new(Variant::Boolean(node.access.user_executable(user)))
            }
        }
    }

    /// Writes a variable's value as `user`.
    pub fn write_value(&mut self, id: &NodeId, value: Variant, user: &UserClass) -> StatusCode {
        let Some(node) = self.get_mut(id) else {
            return StatusCode::BAD_NODE_ID_UNKNOWN;
        };
        if node.node_class != NodeClass::Variable {
            return StatusCode::BAD_ATTRIBUTE_ID_INVALID;
        }
        if !node.access.user_access_level(user).writable() {
            return StatusCode::BAD_NOT_WRITABLE;
        }
        node.value = Some(value);
        StatusCode::GOOD
    }

    /// Invokes a method as `user`. The simulation's methods have no
    /// behaviour beyond access control; a successful call returns no
    /// outputs (the paper's scanner never calls methods — this path
    /// exists so servers enforce and advertise executability correctly).
    pub fn call_method(&self, method_id: &NodeId, user: &UserClass) -> StatusCode {
        let Some(node) = self.get(method_id) else {
            return StatusCode::BAD_METHOD_INVALID;
        };
        if node.node_class != NodeClass::Method {
            return StatusCode::BAD_METHOD_INVALID;
        }
        if !node.access.user_executable(user) {
            return StatusCode::BAD_NOT_EXECUTABLE;
        }
        StatusCode::GOOD
    }

    /// Effective access summary for `user`: (readable variables,
    /// writable variables, executable methods).
    pub fn access_summary(&self, user: &UserClass) -> (usize, usize, usize) {
        let mut readable = 0;
        let mut writable = 0;
        let mut executable = 0;
        for node in &self.nodes {
            match node.node_class {
                NodeClass::Variable => {
                    let lvl = node.access.user_access_level(user);
                    if lvl.readable() {
                        readable += 1;
                    }
                    if lvl.writable() {
                        writable += 1;
                    }
                }
                NodeClass::Method if node.access.user_executable(user) => {
                    executable += 1;
                }
                _ => {}
            }
        }
        (readable, writable, executable)
    }
}

// What `resident_bytes` charges for each part of a space: the sizes
// rustc lays these types out with on 64-bit targets, fixed here so the
// figure does not move with the toolchain. `population`'s footprint
// test checks that the estimate built on them stays close to the live
// heap.

/// The [`AddressSpace`] struct.
const SPACE_BYTES: usize = 96;
/// One [`Node`] in the table.
const NODE_BYTES: usize = 160;
/// One [`Reference`] a node stores.
const REFERENCE_BYTES: usize = 12;
/// One `(NodeId, u32)` entry of the id → index map.
const INDEX_ENTRY_BYTES: usize = 48;
/// One element of an array value.
const VARIANT_BYTES: usize = 48;
/// A `String`'s header: pointer, capacity and length.
const STRING_BYTES: usize = 24;

/// Heap bytes of a node id's identifier.
fn id_heap_bytes(id: &NodeId) -> usize {
    match &id.identifier {
        Identifier::String(s) => s.len(),
        Identifier::Opaque(b) => b.len(),
        Identifier::Numeric(_) | Identifier::Guid(_) => 0,
    }
}

/// Heap bytes of a value.
fn value_heap_bytes(value: &Variant) -> usize {
    let text = |t: &Option<String>| t.as_ref().map_or(0, String::len);
    match value {
        Variant::String(s) => text(s),
        Variant::ByteString(b) => b.as_ref().map_or(0, Vec::len),
        Variant::NodeId(id) => id_heap_bytes(id),
        Variant::QualifiedName(q) => text(&q.name),
        Variant::LocalizedText(l) => text(&l.locale) + text(&l.text),
        Variant::Array(items) => items
            .iter()
            .map(|v| VARIANT_BYTES + value_heap_bytes(v))
            .sum(),
        _ => 0,
    }
}

impl Default for AddressSpace {
    fn default() -> Self {
        Self::new(&[], "1.0.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ua_types::AccessLevel;

    fn space_with_device() -> AddressSpace {
        let mut s = AddressSpace::new(&["urn:factory:plc"], "2.1.0");
        let device = NodeId::string(1, "Device");
        s.insert(Node::object(
            device.clone(),
            QualifiedName::new(1, "Device"),
            ids::TYPE_FOLDER,
        ));
        s.add_reference(
            &NodeId::numeric(0, ids::OBJECTS_FOLDER),
            ids::REF_ORGANIZES,
            &device,
        );
        s.insert(Node::variable(
            NodeId::string(1, "m3InflowPerHour"),
            QualifiedName::new(1, "m3InflowPerHour"),
            Variant::Double(12.5),
            NodeAccess::read_only(),
        ));
        s.add_reference(
            &device,
            ids::REF_HAS_COMPONENT,
            &NodeId::string(1, "m3InflowPerHour"),
        );
        s.insert(Node::variable(
            NodeId::string(1, "rSetFillLevel"),
            QualifiedName::new(1, "rSetFillLevel"),
            Variant::Float(80.0),
            NodeAccess::read_write_all(),
        ));
        s.add_reference(
            &device,
            ids::REF_HAS_COMPONENT,
            &NodeId::string(1, "rSetFillLevel"),
        );
        s.insert(Node::method(
            NodeId::string(1, "AddEndpoint"),
            QualifiedName::new(1, "AddEndpoint"),
            true,
        ));
        s.add_reference(
            &device,
            ids::REF_HAS_COMPONENT,
            &NodeId::string(1, "AddEndpoint"),
        );
        s
    }

    #[test]
    fn skeleton_exists() {
        let s = AddressSpace::default();
        assert!(s.get(&NodeId::numeric(0, ids::ROOT_FOLDER)).is_some());
        assert!(s.get(&NodeId::numeric(0, ids::OBJECTS_FOLDER)).is_some());
        assert!(s
            .get(&NodeId::numeric(0, ids::SERVER_NAMESPACE_ARRAY))
            .is_some());
        assert!(s
            .get(&NodeId::numeric(0, ids::SERVER_SOFTWARE_VERSION))
            .is_some());
        assert!(!s.is_empty());
    }

    #[test]
    fn namespace_array_readable() {
        let s = AddressSpace::new(&["urn:factory:plc", "urn:vendor:product"], "1.0");
        let dv = s.read_attribute(
            &NodeId::numeric(0, ids::SERVER_NAMESPACE_ARRAY),
            AttributeId::Value,
            &UserClass::Anonymous,
        );
        assert!(dv.is_good());
        match dv.value.unwrap() {
            Variant::Array(items) => {
                assert_eq!(items.len(), 3);
                assert_eq!(items[0], Variant::String(Some(ids::NS0_URI.into())));
                assert_eq!(items[1], Variant::String(Some("urn:factory:plc".into())));
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    /// The browse names `id` browses to, with their reference types.
    fn browsed(s: &AddressSpace, id: &NodeId) -> Vec<(u32, String)> {
        s.browse(id)
            .unwrap()
            .map(|(rt, n)| (rt, n.browse_name.name.clone().unwrap()))
            .collect()
    }

    #[test]
    fn browse_follows_forward_references() {
        let s = space_with_device();
        let root = browsed(&s, &NodeId::numeric(0, ids::ROOT_FOLDER));
        assert_eq!(root.len(), 3);
        // Server + Device, in insertion order.
        assert_eq!(
            browsed(&s, &NodeId::numeric(0, ids::OBJECTS_FOLDER)),
            [
                (ids::REF_ORGANIZES, "Server".to_string()),
                (ids::REF_ORGANIZES, "Device".to_string())
            ]
        );
        // Inverse references are not reported: the device's parent
        // (Objects) is not among its browse results.
        let device = browsed(&s, &NodeId::string(1, "Device"));
        assert_eq!(
            device,
            [
                (ids::REF_HAS_COMPONENT, "m3InflowPerHour".to_string()),
                (ids::REF_HAS_COMPONENT, "rSetFillLevel".to_string()),
                (ids::REF_HAS_COMPONENT, "AddEndpoint".to_string())
            ]
        );
    }

    #[test]
    fn browse_unknown_node() {
        let s = AddressSpace::default();
        assert!(s.browse(&NodeId::string(5, "nope")).is_none());
    }

    #[test]
    fn reference_to_missing_node_stores_nothing() {
        let mut s = space_with_device();
        let device = NodeId::string(1, "Device");
        let missing = NodeId::string(1, "Ghost");
        s.add_reference(&device, ids::REF_HAS_COMPONENT, &missing);
        s.add_reference(&missing, ids::REF_ORGANIZES, &device);
        assert_eq!(browsed(&s, &device).len(), 3);
        assert!(s.get(&missing).is_none());
        // Nor did either call store an inverse reference.
        assert_eq!(s.get(&device).unwrap().references.len(), 4);
    }

    #[test]
    fn replacing_a_node_keeps_its_index_and_position() {
        let mut s = space_with_device();
        let order =
            |s: &AddressSpace| -> Vec<NodeId> { s.iter().map(|n| n.node_id().clone()).collect() };
        let before = order(&s);
        let fill = NodeId::string(1, "rSetFillLevel");
        let index = s.index[&fill];
        s.insert(Node::variable(
            fill.clone(),
            QualifiedName::new(1, "rSetFillLevel"),
            Variant::Float(1.0),
            NodeAccess::read_only(),
        ));
        assert_eq!(s.index[&fill], index);
        assert_eq!(order(&s), before);
        assert_eq!(s.len(), before.len());
        assert_eq!(s.get(&fill).unwrap().value, Some(Variant::Float(1.0)));
        // The device's reference to it still resolves, to the new node.
        let device = browsed(&s, &NodeId::string(1, "Device"));
        assert_eq!(
            device[1],
            (ids::REF_HAS_COMPONENT, "rSetFillLevel".to_string())
        );
        let dv = s.read_attribute(&fill, AttributeId::Value, &UserClass::Anonymous);
        assert_eq!(dv.value, Some(Variant::Float(1.0)));
    }

    #[test]
    fn read_value_respects_access() {
        let mut s = space_with_device();
        // Make inflow hidden from anonymous.
        s.get_mut(&NodeId::string(1, "m3InflowPerHour"))
            .unwrap()
            .access = NodeAccess::authenticated_only();
        let anon = s.read_attribute(
            &NodeId::string(1, "m3InflowPerHour"),
            AttributeId::Value,
            &UserClass::Anonymous,
        );
        assert_eq!(anon.status_code(), StatusCode::BAD_NOT_READABLE);
        let auth = s.read_attribute(
            &NodeId::string(1, "m3InflowPerHour"),
            AttributeId::Value,
            &UserClass::Authenticated,
        );
        assert!(auth.is_good());
    }

    #[test]
    fn user_access_level_attribute_differs_per_user() {
        let s = space_with_device();
        let mut sw = s.clone();
        sw.get_mut(&NodeId::string(1, "rSetFillLevel"))
            .unwrap()
            .access = NodeAccess::write_authenticated();
        let anon = sw.read_attribute(
            &NodeId::string(1, "rSetFillLevel"),
            AttributeId::UserAccessLevel,
            &UserClass::Anonymous,
        );
        assert_eq!(anon.value, Some(Variant::Byte(AccessLevel::CURRENT_READ.0)));
        let auth = sw.read_attribute(
            &NodeId::string(1, "rSetFillLevel"),
            AttributeId::UserAccessLevel,
            &UserClass::Authenticated,
        );
        assert_eq!(auth.value, Some(Variant::Byte(AccessLevel::READ_WRITE.0)));
    }

    #[test]
    fn write_respects_access() {
        let mut s = space_with_device();
        let st = s.write_value(
            &NodeId::string(1, "rSetFillLevel"),
            Variant::Float(99.0),
            &UserClass::Anonymous,
        );
        assert_eq!(st, StatusCode::GOOD);
        assert_eq!(
            s.get(&NodeId::string(1, "rSetFillLevel")).unwrap().value,
            Some(Variant::Float(99.0))
        );
        let st = s.write_value(
            &NodeId::string(1, "m3InflowPerHour"),
            Variant::Double(0.0),
            &UserClass::Anonymous,
        );
        assert_eq!(st, StatusCode::BAD_NOT_WRITABLE);
        let st = s.write_value(
            &NodeId::string(9, "x"),
            Variant::Empty,
            &UserClass::Anonymous,
        );
        assert_eq!(st, StatusCode::BAD_NODE_ID_UNKNOWN);
    }

    #[test]
    fn call_respects_executability() {
        let mut s = space_with_device();
        assert_eq!(
            s.call_method(&NodeId::string(1, "AddEndpoint"), &UserClass::Anonymous),
            StatusCode::GOOD
        );
        s.get_mut(&NodeId::string(1, "AddEndpoint")).unwrap().access = NodeAccess::method(false);
        assert_eq!(
            s.call_method(&NodeId::string(1, "AddEndpoint"), &UserClass::Anonymous),
            StatusCode::BAD_NOT_EXECUTABLE
        );
        assert_eq!(
            s.call_method(&NodeId::string(1, "AddEndpoint"), &UserClass::Authenticated),
            StatusCode::GOOD
        );
        // Calling a variable is invalid.
        assert_eq!(
            s.call_method(
                &NodeId::string(1, "rSetFillLevel"),
                &UserClass::Authenticated
            ),
            StatusCode::BAD_METHOD_INVALID
        );
    }

    #[test]
    fn access_summary_counts() {
        let s = space_with_device();
        let (r, w, x) = s.access_summary(&UserClass::Anonymous);
        // Variables: NamespaceArray, SoftwareVersion, inflow, fill level
        // (all readable); writable: fill level only; methods: AddEndpoint.
        assert_eq!(r, 4);
        assert_eq!(w, 1);
        assert_eq!(x, 1);
    }

    #[test]
    fn wrong_attribute_for_class() {
        let s = space_with_device();
        let dv = s.read_attribute(
            &NodeId::string(1, "Device"),
            AttributeId::Value,
            &UserClass::Anonymous,
        );
        assert_eq!(dv.status_code(), StatusCode::BAD_ATTRIBUTE_ID_INVALID);
        let dv = s.read_attribute(
            &NodeId::string(1, "rSetFillLevel"),
            AttributeId::Executable,
            &UserClass::Anonymous,
        );
        assert_eq!(dv.status_code(), StatusCode::BAD_ATTRIBUTE_ID_INVALID);
    }

    #[test]
    fn iteration_is_deterministic() {
        let a = space_with_device();
        let b = space_with_device();
        let ids_a: Vec<_> = a.iter().map(|n| n.node_id().clone()).collect();
        let ids_b: Vec<_> = b.iter().map(|n| n.node_id().clone()).collect();
        assert_eq!(ids_a, ids_b);
    }
}
