package rados

import "strconv"

// Shard-key construction. EC stripe shards are stored under
// "<obj>:<off>.s<rank>"; helpers that already hold a stripe key
// ("<obj>:<off>") append only the ".s<rank>" suffix. These builders replace
// the fmt.Sprintf calls that used to sit on the shard fan-out paths: the
// Append variants write into a caller-provided buffer and allocate nothing
// when it has capacity, and the string variants build the key in a stack
// array and cost exactly one string allocation (a key longer than
// shardKeyStack bytes grows onto the heap first).

// AppendShardKey appends "<obj>:<off>.s<rank>" to buf and returns the
// extended slice.
func AppendShardKey(buf []byte, obj string, off, rank int) []byte {
	buf = append(buf, obj...)
	buf = append(buf, ':')
	buf = strconv.AppendInt(buf, int64(off), 10)
	return appendRank(buf, rank)
}

// AppendStripeShard appends "<stripe>.s<rank>" to buf and returns the
// extended slice.
func AppendStripeShard(buf []byte, stripe string, rank int) []byte {
	buf = append(buf, stripe...)
	return appendRank(buf, rank)
}

func appendRank(buf []byte, rank int) []byte {
	buf = append(buf, '.', 's')
	return strconv.AppendInt(buf, int64(rank), 10)
}

// shardKeyStack is the key length ShardKey and StripeShard build without a
// heap buffer.
const shardKeyStack = 64

// ShardKey returns the shard object name for rank of the EC stripe written
// at (obj, off).
func ShardKey(obj string, off, rank int) string {
	var buf [shardKeyStack]byte
	return string(AppendShardKey(buf[:0], obj, off, rank))
}

// StripeShard returns the shard object name for rank of an existing stripe
// key.
func StripeShard(stripe string, rank int) string {
	var buf [shardKeyStack]byte
	return string(AppendStripeShard(buf[:0], stripe, rank))
}
