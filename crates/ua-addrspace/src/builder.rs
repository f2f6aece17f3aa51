//! Fluent construction of industrial address spaces.
//!
//! The population generator uses this to build realistic device models:
//! folders per subsystem, process variables (`m3InflowPerHour`,
//! `rSetFillLevel`, …), and maintenance methods (`AddEndpoint`, …).

use crate::ids;
use crate::node::{Node, NodeAccess};
use crate::space::AddressSpace;
use ua_types::{NodeId, QualifiedName, Variant};

/// Namespace index of every node the builder adds: the first extra
/// namespace.
const NAMESPACE: u16 = 1;

/// Builds an [`AddressSpace`] incrementally.
pub struct SpaceBuilder {
    space: AddressSpace,
}

impl SpaceBuilder {
    /// Starts from the standard skeleton with `extra_namespaces`; new
    /// nodes are created in namespace index 1 (the first extra
    /// namespace).
    pub fn new(extra_namespaces: &[&str], software_version: &str) -> Self {
        assert!(
            !extra_namespaces.is_empty(),
            "builder needs at least one application namespace"
        );
        SpaceBuilder {
            space: AddressSpace::new(extra_namespaces, software_version),
        }
    }

    /// Adds a folder under `parent` (or Objects when `None`), returning
    /// its id.
    pub fn folder(&mut self, parent: Option<&NodeId>, name: &str) -> NodeId {
        let id = NodeId::string(NAMESPACE, name);
        self.space.insert(Node::object(
            id.clone(),
            QualifiedName::new(NAMESPACE, name),
            ids::TYPE_FOLDER,
        ));
        let parent = parent
            .cloned()
            .unwrap_or_else(|| NodeId::numeric(0, ids::OBJECTS_FOLDER));
        self.space.add_reference(&parent, ids::REF_ORGANIZES, &id);
        id
    }

    /// Adds a variable under `parent`.
    pub fn variable(
        &mut self,
        parent: &NodeId,
        name: &str,
        value: Variant,
        access: NodeAccess,
    ) -> NodeId {
        let id = NodeId::string(NAMESPACE, name);
        self.space.insert(Node::variable(
            id.clone(),
            QualifiedName::new(NAMESPACE, name),
            value,
            access,
        ));
        self.space
            .add_reference(parent, ids::REF_HAS_COMPONENT, &id);
        id
    }

    /// Adds a method under `parent`.
    pub fn method(&mut self, parent: &NodeId, name: &str, anonymous_executable: bool) -> NodeId {
        let id = NodeId::string(NAMESPACE, name);
        self.space.insert(Node::method(
            id.clone(),
            QualifiedName::new(NAMESPACE, name),
            anonymous_executable,
        ));
        self.space
            .add_reference(parent, ids::REF_HAS_COMPONENT, &id);
        id
    }

    /// Finishes building, with every table trimmed to its length.
    pub fn finish(mut self) -> AddressSpace {
        self.space.trim();
        self.space
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::UserClass;
    use ua_types::{AttributeId, StatusCode};

    #[test]
    fn builds_nested_structure() {
        let mut b = SpaceBuilder::new(&["urn:waterworks:plant1"], "3.4.1");
        let plant = b.folder(None, "Plant");
        let pumps = b.folder(Some(&plant), "Pumps");
        b.variable(
            &pumps,
            "m3InflowPerHour",
            Variant::Double(42.0),
            NodeAccess::read_only(),
        );
        b.variable(
            &pumps,
            "rSetFillLevel",
            Variant::Float(80.0),
            NodeAccess::read_write_all(),
        );
        b.method(&pumps, "FlushPipes", false);
        let space = b.finish();

        // Objects -> Server + Plant.
        let browsed = |id: &NodeId| space.browse(id).unwrap().count();
        assert_eq!(browsed(&NodeId::numeric(0, ids::OBJECTS_FOLDER)), 2);
        assert_eq!(browsed(&NodeId::string(1, "Pumps")), 3);
        // Anonymous cannot execute FlushPipes.
        assert_eq!(
            space.call_method(&NodeId::string(1, "FlushPipes"), &UserClass::Anonymous),
            StatusCode::BAD_NOT_EXECUTABLE
        );
        // NamespaceArray has 2 entries.
        let dv = space.read_attribute(
            &NodeId::numeric(0, ids::SERVER_NAMESPACE_ARRAY),
            AttributeId::Value,
            &UserClass::Anonymous,
        );
        match dv.value.unwrap() {
            Variant::Array(a) => assert_eq!(a.len(), 2),
            _ => panic!("expected array"),
        }
    }

    #[test]
    #[should_panic]
    fn requires_namespace() {
        SpaceBuilder::new(&[], "1.0");
    }
}
