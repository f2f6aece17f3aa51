//! The address-space store: browsing, reads, writes, calls — all
//! user-aware.

use crate::ids;
use crate::node::{Node, NodeAccess, Reference, UserClass};
use std::collections::HashMap;
use ua_types::{AttributeId, DataValue, NodeClass, NodeId, QualifiedName, StatusCode, Variant};

/// Result of browsing one node.
#[derive(Debug, Clone, PartialEq)]
pub struct BrowseOutcome {
    /// Status (e.g. `BAD_NODE_ID_UNKNOWN`).
    pub status: StatusCode,
    /// References from the node, in insertion order.
    pub references: Vec<Reference>,
}

/// An OPC UA address space.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    namespaces: Vec<String>,
    nodes: HashMap<NodeId, Node>,
    insertion_order: Vec<NodeId>,
}

impl AddressSpace {
    /// Creates a space with the standard skeleton: Root, Objects, Types,
    /// Views, the Server object with `NamespaceArray` and
    /// `SoftwareVersion`, plus the given additional namespaces.
    pub fn new(extra_namespaces: &[&str], software_version: &str) -> Self {
        let mut namespaces = vec![ids::NS0_URI.to_string()];
        namespaces.extend(extra_namespaces.iter().map(|s| s.to_string()));

        let mut space = AddressSpace {
            namespaces: namespaces.clone(),
            nodes: HashMap::new(),
            insertion_order: Vec::new(),
        };

        let folder_type = NodeId::numeric(0, ids::TYPE_FOLDER);
        space.insert(Node::object(
            NodeId::numeric(0, ids::ROOT_FOLDER),
            QualifiedName::new(0, "Root"),
            folder_type.clone(),
        ));
        space.insert(Node::object(
            NodeId::numeric(0, ids::OBJECTS_FOLDER),
            QualifiedName::new(0, "Objects"),
            folder_type.clone(),
        ));
        space.insert(Node::object(
            NodeId::numeric(0, ids::TYPES_FOLDER),
            QualifiedName::new(0, "Types"),
            folder_type.clone(),
        ));
        space.insert(Node::object(
            NodeId::numeric(0, ids::VIEWS_FOLDER),
            QualifiedName::new(0, "Views"),
            folder_type,
        ));
        let root = NodeId::numeric(0, ids::ROOT_FOLDER);
        space.add_reference(
            &root,
            ids::REF_ORGANIZES,
            NodeId::numeric(0, ids::OBJECTS_FOLDER),
        );
        space.add_reference(
            &root,
            ids::REF_ORGANIZES,
            NodeId::numeric(0, ids::TYPES_FOLDER),
        );
        space.add_reference(
            &root,
            ids::REF_ORGANIZES,
            NodeId::numeric(0, ids::VIEWS_FOLDER),
        );

        // Server object with NamespaceArray and SoftwareVersion.
        space.insert(Node::object(
            NodeId::numeric(0, ids::SERVER),
            QualifiedName::new(0, "Server"),
            NodeId::NULL,
        ));
        space.add_reference(
            &NodeId::numeric(0, ids::OBJECTS_FOLDER),
            ids::REF_ORGANIZES,
            NodeId::numeric(0, ids::SERVER),
        );
        let ns_array = Variant::Array(
            namespaces
                .iter()
                .map(|n| Variant::String(Some(n.clone())))
                .collect(),
        );
        space.insert(Node::variable(
            NodeId::numeric(0, ids::SERVER_NAMESPACE_ARRAY),
            QualifiedName::new(0, "NamespaceArray"),
            ns_array,
            NodeAccess::read_only(),
        ));
        space.add_reference(
            &NodeId::numeric(0, ids::SERVER),
            ids::REF_HAS_PROPERTY,
            NodeId::numeric(0, ids::SERVER_NAMESPACE_ARRAY),
        );
        space.insert(Node::object(
            NodeId::numeric(0, ids::SERVER_STATUS),
            QualifiedName::new(0, "ServerStatus"),
            NodeId::NULL,
        ));
        space.add_reference(
            &NodeId::numeric(0, ids::SERVER),
            ids::REF_HAS_COMPONENT,
            NodeId::numeric(0, ids::SERVER_STATUS),
        );
        space.insert(Node::object(
            NodeId::numeric(0, ids::SERVER_BUILD_INFO),
            QualifiedName::new(0, "BuildInfo"),
            NodeId::NULL,
        ));
        space.add_reference(
            &NodeId::numeric(0, ids::SERVER_STATUS),
            ids::REF_HAS_COMPONENT,
            NodeId::numeric(0, ids::SERVER_BUILD_INFO),
        );
        space.insert(Node::variable(
            NodeId::numeric(0, ids::SERVER_SOFTWARE_VERSION),
            QualifiedName::new(0, "SoftwareVersion"),
            Variant::String(Some(software_version.to_string())),
            NodeAccess::read_only(),
        ));
        space.add_reference(
            &NodeId::numeric(0, ids::SERVER_BUILD_INFO),
            ids::REF_HAS_PROPERTY,
            NodeId::numeric(0, ids::SERVER_SOFTWARE_VERSION),
        );
        space
    }

    /// The namespace array.
    pub fn namespaces(&self) -> &[String] {
        &self.namespaces
    }

    /// Inserts a node (replacing any previous node with the same id).
    pub fn insert(&mut self, node: Node) {
        if !self.nodes.contains_key(&node.node_id) {
            self.insertion_order.push(node.node_id.clone());
        }
        self.nodes.insert(node.node_id.clone(), node);
    }

    /// Looks up a node.
    pub fn get(&self, id: &NodeId) -> Option<&Node> {
        self.nodes.get(id)
    }

    /// Looks up a node mutably.
    pub fn get_mut(&mut self, id: &NodeId) -> Option<&mut Node> {
        self.nodes.get_mut(id)
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
        self.insertion_order
            .iter()
            .filter_map(|id| self.nodes.get(id))
    }

    /// Adds a forward reference (and its inverse on the target).
    pub fn add_reference(&mut self, source: &NodeId, reference_type: u32, target: NodeId) {
        let rt = NodeId::numeric(0, reference_type);
        if let Some(node) = self.nodes.get_mut(source) {
            node.references.push(Reference {
                reference_type: rt.clone(),
                target: target.clone(),
                is_forward: true,
            });
        }
        if let Some(node) = self.nodes.get_mut(&target) {
            node.references.push(Reference {
                reference_type: rt,
                target: source.clone(),
                is_forward: false,
            });
        }
    }

    /// Browses forward references of `id`. Access control on browse: all
    /// users may browse the structure (matching common server behaviour;
    /// data protection happens at the attribute level).
    pub fn browse(&self, id: &NodeId) -> BrowseOutcome {
        match self.nodes.get(id) {
            None => BrowseOutcome {
                status: StatusCode::BAD_NODE_ID_UNKNOWN,
                references: Vec::new(),
            },
            Some(node) => BrowseOutcome {
                status: StatusCode::GOOD,
                references: node
                    .references
                    .iter()
                    .filter(|r| r.is_forward)
                    .cloned()
                    .collect(),
            },
        }
    }

    /// Reads one attribute as `user`.
    pub fn read_attribute(
        &self,
        id: &NodeId,
        attribute: AttributeId,
        user: &UserClass,
    ) -> DataValue {
        let Some(node) = self.nodes.get(id) else {
            return DataValue::error(StatusCode::BAD_NODE_ID_UNKNOWN);
        };
        match attribute {
            AttributeId::NodeId => DataValue::new(Variant::NodeId(node.node_id.clone())),
            AttributeId::BrowseName => {
                DataValue::new(Variant::QualifiedName(node.browse_name.clone()))
            }
            AttributeId::DisplayName => {
                DataValue::new(Variant::LocalizedText(node.display_name.clone()))
            }
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
        let Some(node) = self.nodes.get_mut(id) else {
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
        let Some(node) = self.nodes.get(method_id) else {
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
        for node in self.nodes.values() {
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
            NodeId::numeric(0, ids::TYPE_FOLDER),
        ));
        s.add_reference(
            &NodeId::numeric(0, ids::OBJECTS_FOLDER),
            ids::REF_ORGANIZES,
            device.clone(),
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
            NodeId::string(1, "m3InflowPerHour"),
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
            NodeId::string(1, "rSetFillLevel"),
        );
        s.insert(Node::method(
            NodeId::string(1, "AddEndpoint"),
            QualifiedName::new(1, "AddEndpoint"),
            true,
        ));
        s.add_reference(
            &device,
            ids::REF_HAS_COMPONENT,
            NodeId::string(1, "AddEndpoint"),
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

    #[test]
    fn browse_follows_forward_references() {
        let s = space_with_device();
        let root = s.browse(&NodeId::numeric(0, ids::ROOT_FOLDER));
        assert_eq!(root.status, StatusCode::GOOD);
        assert_eq!(root.references.len(), 3);
        let objects = s.browse(&NodeId::numeric(0, ids::OBJECTS_FOLDER));
        // Server + Device.
        assert_eq!(objects.references.len(), 2);
        // Inverse references are not reported.
        let device = s.browse(&NodeId::string(1, "Device"));
        assert_eq!(device.references.len(), 3);
        assert!(device.references.iter().all(|r| r.is_forward));
    }

    #[test]
    fn browse_unknown_node() {
        let s = AddressSpace::default();
        let out = s.browse(&NodeId::string(5, "nope"));
        assert_eq!(out.status, StatusCode::BAD_NODE_ID_UNKNOWN);
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
        let ids_a: Vec<_> = a.iter().map(|n| n.node_id.clone()).collect();
        let ids_b: Vec<_> = b.iter().map(|n| n.node_id.clone()).collect();
        assert_eq!(ids_a, ids_b);
    }
}
