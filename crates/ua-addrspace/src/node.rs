//! Node records and per-user access resolution.

use ua_types::{AccessLevel, LocalizedText, NodeClass, NodeId, QualifiedName, Variant};

/// The identity class a request executes under. OPC UA servers can grant
/// different rights per user; the study contrasts the *anonymous* user
/// (what any Internet attacker gets) with authenticated users.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum UserClass {
    /// No credentials presented.
    Anonymous,
    /// Authenticated (username, certificate, or issued token).
    Authenticated,
}

/// Per-node access configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeAccess {
    /// What the node supports at all (`AccessLevel` attribute).
    pub access_level: AccessLevel,
    /// Effective rights of anonymous users (`UserAccessLevel` when
    /// anonymous).
    pub anonymous: AccessLevel,
    /// Effective rights of authenticated users.
    pub authenticated: AccessLevel,
    /// Whether the method is executable at all (`Executable`).
    pub executable: bool,
    /// Whether anonymous users may execute (`UserExecutable`).
    pub anonymous_executable: bool,
    /// Whether authenticated users may execute.
    pub authenticated_executable: bool,
}

impl Default for NodeAccess {
    fn default() -> Self {
        NodeAccess {
            access_level: AccessLevel::CURRENT_READ,
            anonymous: AccessLevel::CURRENT_READ,
            authenticated: AccessLevel::CURRENT_READ,
            executable: false,
            anonymous_executable: false,
            authenticated_executable: false,
        }
    }
}

impl NodeAccess {
    /// Read-only for everyone.
    pub fn read_only() -> Self {
        Self::default()
    }

    /// Readable and writable by everyone (the unprotected configuration
    /// §5.4 finds on a third of accessible hosts).
    pub fn read_write_all() -> Self {
        NodeAccess {
            access_level: AccessLevel::READ_WRITE,
            anonymous: AccessLevel::READ_WRITE,
            authenticated: AccessLevel::READ_WRITE,
            ..Self::default()
        }
    }

    /// Readable by all, writable only by authenticated users.
    pub fn write_authenticated() -> Self {
        NodeAccess {
            access_level: AccessLevel::READ_WRITE,
            anonymous: AccessLevel::CURRENT_READ,
            authenticated: AccessLevel::READ_WRITE,
            ..Self::default()
        }
    }

    /// Completely hidden from anonymous users.
    pub fn authenticated_only() -> Self {
        NodeAccess {
            access_level: AccessLevel::READ_WRITE,
            anonymous: AccessLevel::NONE,
            authenticated: AccessLevel::READ_WRITE,
            ..Self::default()
        }
    }

    /// A method executable by the given user classes.
    pub fn method(anonymous_executable: bool) -> Self {
        NodeAccess {
            access_level: AccessLevel::NONE,
            anonymous: AccessLevel::NONE,
            authenticated: AccessLevel::NONE,
            executable: true,
            anonymous_executable,
            authenticated_executable: true,
        }
    }

    /// Effective `UserAccessLevel` for `user` (intersected with the node
    /// capability, as Part 3 requires).
    pub fn user_access_level(&self, user: &UserClass) -> AccessLevel {
        let granted = match user {
            UserClass::Anonymous => self.anonymous,
            UserClass::Authenticated => self.authenticated,
        };
        granted.intersect(self.access_level)
    }

    /// Effective `UserExecutable` for `user`.
    pub fn user_executable(&self, user: &UserClass) -> bool {
        self.executable
            && match user {
                UserClass::Anonymous => self.anonymous_executable,
                UserClass::Authenticated => self.authenticated_executable,
            }
    }
}

/// A typed reference from one node to another, as the owning node
/// stores it: the reference type is a namespace-0 numeric id and the
/// target is the other node's index in the
/// [`AddressSpace`](crate::AddressSpace)'s table, so a reference never
/// dangles and costs 12 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Reference {
    /// Reference type (e.g. [`crate::ids::REF_ORGANIZES`]).
    pub(crate) reference_type: u32,
    /// Index of the other node.
    pub(crate) target: u32,
    /// Forward (this node → target) or inverse.
    pub(crate) is_forward: bool,
}

/// A node in the address space.
///
/// The node stores its [`NodeId`] once; the space's id → index map
/// holds the only other copy. DisplayName is not stored: every
/// constructor sets it to the BrowseName's text, so
/// [`Node::display_name`] derives it. The type definition is a
/// namespace-0 numeric id (0 for none). The space keys the node by its
/// id and links its references by table index
/// ([`crate::AddressSpace::add_reference`]), so the id is read-only
/// ([`Node::node_id`]) and the references are reached by browsing.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    node_id: NodeId,
    /// Browse name (namespace-qualified); DisplayName follows it.
    pub browse_name: QualifiedName,
    /// Node class.
    pub node_class: NodeClass,
    /// Current value (variables only).
    pub value: Option<Variant>,
    /// Access configuration.
    pub access: NodeAccess,
    /// HasTypeDefinition target: a namespace-0 numeric id, 0 for none.
    pub type_definition: u32,
    pub(crate) references: Vec<Reference>,
}

impl Node {
    /// Creates an object node of the namespace-0 type `type_definition`
    /// (0 for none).
    pub fn object(node_id: NodeId, browse_name: QualifiedName, type_definition: u32) -> Self {
        Node {
            node_id,
            browse_name,
            node_class: NodeClass::Object,
            value: None,
            access: NodeAccess::read_only(),
            type_definition,
            references: Vec::new(),
        }
    }

    /// Creates a variable node.
    pub fn variable(
        node_id: NodeId,
        browse_name: QualifiedName,
        value: Variant,
        access: NodeAccess,
    ) -> Self {
        Node {
            node_id,
            browse_name,
            node_class: NodeClass::Variable,
            value: Some(value),
            access,
            type_definition: crate::ids::TYPE_BASE_DATA_VARIABLE,
            references: Vec::new(),
        }
    }

    /// Creates a method node.
    pub fn method(node_id: NodeId, browse_name: QualifiedName, anonymous_executable: bool) -> Self {
        Node {
            node_id,
            browse_name,
            node_class: NodeClass::Method,
            value: None,
            access: NodeAccess::method(anonymous_executable),
            type_definition: 0,
            references: Vec::new(),
        }
    }

    /// The node's id.
    pub fn node_id(&self) -> &NodeId {
        &self.node_id
    }

    /// DisplayName: the BrowseName's text, without a locale.
    pub fn display_name(&self) -> LocalizedText {
        LocalizedText::new(self.browse_name.name.clone().unwrap_or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn user_access_is_intersection() {
        // Node only supports read; even if a user class is granted RW the
        // effective level is read-only.
        let access = NodeAccess {
            access_level: AccessLevel::CURRENT_READ,
            anonymous: AccessLevel::READ_WRITE,
            authenticated: AccessLevel::READ_WRITE,
            ..NodeAccess::default()
        };
        assert_eq!(
            access.user_access_level(&UserClass::Anonymous),
            AccessLevel::CURRENT_READ
        );
    }

    #[test]
    fn presets_differentiate_users() {
        let a = NodeAccess::write_authenticated();
        assert!(a.user_access_level(&UserClass::Anonymous).readable());
        assert!(!a.user_access_level(&UserClass::Anonymous).writable());
        assert!(a.user_access_level(&UserClass::Authenticated).writable());

        let h = NodeAccess::authenticated_only();
        assert!(!h.user_access_level(&UserClass::Anonymous).readable());
        assert!(h.user_access_level(&UserClass::Authenticated).readable());

        let rw = NodeAccess::read_write_all();
        assert!(rw.user_access_level(&UserClass::Anonymous).writable());
    }

    #[test]
    fn method_executability() {
        let m = NodeAccess::method(false);
        assert!(!m.user_executable(&UserClass::Anonymous));
        assert!(m.user_executable(&UserClass::Authenticated));
        let open = NodeAccess::method(true);
        assert!(open.user_executable(&UserClass::Anonymous));
        // Non-executable method stays dead for everyone.
        let dead = NodeAccess {
            executable: false,
            anonymous_executable: true,
            authenticated_executable: true,
            ..NodeAccess::method(true)
        };
        assert!(!dead.user_executable(&UserClass::Authenticated));
    }

    #[test]
    fn constructors_set_class() {
        let o = Node::object(
            NodeId::numeric(2, 1),
            QualifiedName::new(2, "Device"),
            crate::ids::TYPE_FOLDER,
        );
        assert_eq!(o.node_class, NodeClass::Object);
        assert_eq!(o.display_name(), LocalizedText::new("Device"));
        let v = Node::variable(
            NodeId::string(2, "m3InflowPerHour"),
            QualifiedName::new(2, "m3InflowPerHour"),
            Variant::Double(1.5),
            NodeAccess::read_only(),
        );
        assert_eq!(v.node_class, NodeClass::Variable);
        assert_eq!(v.value, Some(Variant::Double(1.5)));
        let m = Node::method(
            NodeId::string(2, "AddEndpoint"),
            QualifiedName::new(2, "AddEndpoint"),
            true,
        );
        assert_eq!(m.node_class, NodeClass::Method);
        assert!(m.access.user_executable(&UserClass::Anonymous));
    }
}
