(** The tamper-scenario registry of the fault-injection harness.

    Each scenario is one move a malicious SP could make in the paper's
    security games: soundness tampers forge results or inaccessibility
    proofs (Theorem 7.1), completeness tampers omit or double-count entitled
    results (Theorem 7.2), and format tampers attack the wire decoder
    directly. *)

type category = Soundness | Completeness | Format | Transport | Crash

type t = { name : string; category : category; description : string }

val all : t list
(** The VO-level registry driven by the fault-injection harness. *)

val network : t list
(** Network-boundary faults ([Transport] category) injected by the chaos
    proxy ([zkqac chaos]) on live connections: stall, slowloris, mid-VO
    truncation, early disconnect, byte corruption, connection refusal.
    Every one must end in a typed error or a successful retry at the
    client — never an accepted tamper, a crash, or an unbounded hang. *)

val crash : t list
(** Process-death faults ([Crash] category) injected by the crash harness:
    a real server is SIGKILLed mid-checkpoint-write, mid-audit-append,
    mid-request, or at a random moment under load, then restarted. Each
    must end with the restart recovering a valid checkpoint epoch and an
    intact (at worst tail-truncated) audit chain, and with every client
    holding a correct VO, a typed fault, or a retried success — never an
    accepted tamper. Kept out of {!all} because the VO-level harness has
    no process to kill. *)

val names : string list
val network_names : string list

val find : string -> t option
(** Look up a scenario in {!all}, {!network} or {!crash}. *)

val expected : string -> Zkqac_util.Verify_error.t -> bool
(** [expected name e] is whether rejecting scenario [name] with error [e]
    witnesses the property the scenario attacks (rather than tripping an
    unrelated check). *)
