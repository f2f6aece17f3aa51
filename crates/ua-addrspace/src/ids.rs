//! Well-known numeric node ids of the standard namespace (OPC 10000-5
//! / 10000-6 Annex) used by the server skeleton and the scanner.

/// RootFolder.
pub const ROOT_FOLDER: u32 = 84;
/// ObjectsFolder — the traversal entry point the scanner uses.
pub const OBJECTS_FOLDER: u32 = 85;
/// TypesFolder.
pub const TYPES_FOLDER: u32 = 86;
/// ViewsFolder.
pub const VIEWS_FOLDER: u32 = 87;
/// Server object.
pub const SERVER: u32 = 2253;
/// Server_NamespaceArray — read to classify systems (§5.4).
pub const SERVER_NAMESPACE_ARRAY: u32 = 2255;
/// Server_ServerStatus.
pub const SERVER_STATUS: u32 = 2256;
/// Server_ServerStatus_BuildInfo.
pub const SERVER_BUILD_INFO: u32 = 2260;
/// Server_ServerStatus_BuildInfo_SoftwareVersion — the field the paper
/// watches for software updates across weekly scans (§5.5).
pub const SERVER_SOFTWARE_VERSION: u32 = 2264;

/// Reference type: Organizes.
pub const REF_ORGANIZES: u32 = 35;
/// Reference type: HasProperty.
pub const REF_HAS_PROPERTY: u32 = 46;
/// Reference type: HasComponent.
pub const REF_HAS_COMPONENT: u32 = 47;

/// Type definition: FolderType.
pub const TYPE_FOLDER: u32 = 61;
/// Type definition: BaseDataVariableType.
pub const TYPE_BASE_DATA_VARIABLE: u32 = 63;

/// The standard namespace URI (index 0 on every server).
pub const NS0_URI: &str = "http://opcfoundation.org/UA/";
