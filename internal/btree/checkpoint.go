package btree

// The checkpoint discipline, the copy-on-write page write and the page
// image (see cowtree.Node.AppendImage) live in internal/cowtree. A
// B+Tree page image is exactly that image under the engine's magic.

// pageMagic marks a serialized B+Tree page ("BTPG").
const pageMagic = 0x42545047
