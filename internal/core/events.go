package core

// The execution API's event taxonomy. A Session emits one Event per
// observable execution step; events are pure observation — emitting them
// draws from no RNG stream, advances no clock, and never changes the
// order any study work executes in, so a subscribed session produces a
// dataset byte-identical to an unobserved run (pinned by
// TestSessionIsPureObservation against the golden dataset).

// EventKind names one observable execution step.
type EventKind string

const (
	// EventStudyStarted opens a session's event stream: the partition
	// plan is fixed and Total carries its work-unit count.
	EventStudyStarted EventKind = "study-started"
	// EventStudyCached reports that the dataset was served without
	// execution, from the persistent result store (Tier "store").
	EventStudyCached EventKind = "study-cached"
	// EventStudyFinished closes a successful session's stream.
	EventStudyFinished EventKind = "study-finished"
	// EventStudyFailed closes a failed or cancelled session's stream;
	// Err holds the study error (ctx.Err() after cancellation).
	EventStudyFailed EventKind = "study-failed"

	// EventEnvStarted and EventEnvFinished bracket one environment's
	// lifecycle (provisioning, scheduling, chaos, audits).
	EventEnvStarted  EventKind = "env-started"
	EventEnvFinished EventKind = "env-finished"
	// EventEnvFailed replaces EventEnvFinished when the environment's
	// shard errored; Err holds the shard error.
	EventEnvFailed EventKind = "env-failed"
	// EventEnvSkipped marks an environment the study never deployed
	// (EnvSpec.Unavailable).
	EventEnvSkipped EventKind = "env-skipped"

	// EventUnitStarted brackets one (env, app) unit's model/hookup
	// precompute; EventUnitFinished means it was computed,
	// EventUnitCached that it was decoded from the persistent store
	// instead (the incremental-execution path).
	EventUnitStarted  EventKind = "unit-started"
	EventUnitFinished EventKind = "unit-finished"
	EventUnitCached   EventKind = "unit-cached"

	// The fleet lifecycle of an offloaded unit. EventUnitLeased marks a
	// remote worker claiming the unit's lease; EventUnitLeaseExpired a
	// lease that lapsed (the unit re-queues or falls back to local
	// compute); EventUnitRemote replaces EventUnitFinished when the
	// unit's artifact was computed and pushed by a remote worker — the
	// session stream shows where every unit ran.
	EventUnitLeased       EventKind = "unit-leased"
	EventUnitLeaseExpired EventKind = "unit-lease-expired"
	EventUnitRemote       EventKind = "unit-remote-completed"

	// EventIncident surfaces one injected chaos fault, emitted after its
	// environment finishes (incident timestamps are shard-local here; the
	// merged campaign timeline lands in Results.Incidents).
	EventIncident EventKind = "incident"

	// EventProgress reports plan completion after every finished work
	// unit: Done of Total units complete.
	EventProgress EventKind = "progress"
)

// Event is one observation from a running session. Env, App, Tier, Err,
// and Incident are populated per the Kind docs above; Done/Total carry
// the partition-plan completion counts on EventStudyStarted,
// EventProgress, and the study-closing kinds.
type Event struct {
	// Seq is the event's 1-based position in its session's stream,
	// assigned at emission. Sequence numbers are monotonic per session
	// and shared by every subscriber — the cursor a disconnected
	// subscriber passes to Session.SubscribeFrom to resume exactly where
	// it left off.
	Seq  uint64
	Kind EventKind
	Env  string
	App  string
	// Tier is the serving tier on EventStudyCached: always "store".
	Tier string
	// Err is set on EventStudyFailed and EventEnvFailed.
	Err error
	// Incident is the injected fault on EventIncident.
	Incident *Incident
	// Done and Total are completed and planned work-unit counts from the
	// partition plan: one task per environment, plus one per (env, app)
	// unit of every deployed environment.
	Done, Total int
}

// Percent is the plan-completion percentage carried by the event, or 0
// when the event carries no counts.
func (e Event) Percent() float64 {
	if e.Total <= 0 {
		return 0
	}
	return 100 * float64(e.Done) / float64(e.Total)
}
