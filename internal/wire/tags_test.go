package wire

import "testing"

// TestMessageTagBytesArePinned pins every live message type to its byte on
// the wire. The tags come from an iota block, so deleting or inserting a
// constant would silently renumber every later message and break every
// deployed peer; this table fails first. A retired tag keeps its number as
// an unnamed placeholder and is simply absent here. The table must never
// be edited to make a test pass.
func TestMessageTagBytesArePinned(t *testing.T) {
	cases := []struct {
		name string
		got  MsgType
		want byte
	}{
		{"EnrollRequest", TypeEnrollRequest, 1},
		{"EnrollOK", TypeEnrollOK, 2},
		{"VerifyRequest", TypeVerifyRequest, 3},
		{"IdentifyRequest", TypeIdentifyRequest, 4},
		{"Challenge", TypeChallenge, 5},
		{"ChallengeBatch", TypeChallengeBatch, 6},
		{"Signature", TypeSignature, 7},
		{"BatchSignature", TypeBatchSignature, 8},
		{"Accept", TypeAccept, 9},
		{"Reject", TypeReject, 10},
		{"RevokeRequest", TypeRevokeRequest, 11},
		{"NotPrimary", TypeNotPrimary, 18},
		{"ReplSubscribe", TypeReplSubscribe, 19},
		{"ReplSnapshot", TypeReplSnapshot, 20},
		{"ReplFrame", TypeReplFrame, 21},
		{"ReplAck", TypeReplAck, 22},
		{"ReplHeartbeat", TypeReplHeartbeat, 23},
		{"ReplStatus", TypeReplStatus, 24},
		{"ReplStatusInfo", TypeReplStatusInfo, 25},
		{"UnknownTenant", TypeUnknownTenant, 26},
		{"TenantAdmin", TypeTenantAdmin, 27},
		{"TenantInfo", TypeTenantInfo, 28},
		{"Overloaded", TypeOverloaded, 29},
		{"TenantLimits", TypeTenantLimits, 30},
		{"ReEnrollRequest", TypeReEnrollRequest, 31},
		{"ClusterMapRequest", TypeClusterMapRequest, 32},
		{"ClusterMapInfo", TypeClusterMapInfo, 33},
		{"WrongPartition", TypeWrongPartition, 34},
		{"PartitionAdmin", TypePartitionAdmin, 35},
		{"PartitionIngest", TypePartitionIngest, 36},
		{"PartitionOK", TypePartitionOK, 37},
	}
	for _, tc := range cases {
		if byte(tc.got) != tc.want {
			t.Errorf("Type%s = %d, pinned %d", tc.name, tc.got, tc.want)
		}
		// The decoder must build the message the tag names.
		m, err := newMessage(MsgType(tc.want))
		if err != nil {
			t.Errorf("tag %d (%s): %v", tc.want, tc.name, err)
			continue
		}
		if m.Type() != tc.got {
			t.Errorf("tag %d decodes to %T, whose tag is %d", tc.want, m, m.Type())
		}
	}
}
