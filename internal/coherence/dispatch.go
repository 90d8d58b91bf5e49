package coherence

import (
	"dvmc/internal/network"
)

// DirectoryHandler routes torus messages delivered at a node to its cache
// controller or home controller by payload type, which release them.
// Unknown payloads go to fallback (the DVMC checkers' Inform-Epoch
// traffic), which may be nil.
func DirectoryHandler(cache *DirCache, home *DirHome, fallback network.Handler) network.Handler {
	return func(m *network.Message) {
		switch m.Payload.(type) {
		case *MsgData, *MsgPermM, *MsgInv, *MsgRecall, *MsgWBAck:
			cache.Handle(m)
		case *MsgGetS, *MsgGetM, *MsgPutS, *MsgPutM, *MsgRecallAck, *MsgInvAck, *MsgUnblock:
			home.Handle(m)
		default:
			if fallback != nil {
				fallback(m)
			}
		}
	}
}

// SnoopingDataHandler routes torus messages of the snooping system.
func SnoopingDataHandler(cache *SnoopCache, home *SnoopHome, fallback network.Handler) network.Handler {
	return func(m *network.Message) {
		switch m.Payload.(type) {
		case *MsgSnoopData:
			cache.HandleData(m)
		case *MsgSnoopWB:
			home.HandleData(m)
		default:
			if fallback != nil {
				fallback(m)
			}
		}
	}
}

// SnoopingAddressHandler fans a broadcast out to the node's cache and
// home controllers, which copy what they keep of it: the tree releases it
// once every node has seen it. Order matters: the cache processes the
// snoop first so that an owning cache's supply decision precedes the
// home's ownership update for the same broadcast (both observe the same
// sequence number).
func SnoopingAddressHandler(cache *SnoopCache, home *SnoopHome) network.Handler {
	return func(m *network.Message) {
		cache.Snoop(m)
		home.Snoop(m)
	}
}
