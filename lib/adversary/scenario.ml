type category = Soundness | Completeness | Format | Transport | Crash

type t = { name : string; category : category; description : string }

let all =
  [
    (* Soundness game (Theorem 7.1): forge a result or an inaccessibility
       proof the DO never authorized. *)
    { name = "flip-value";
      category = Soundness;
      description = "flip a byte of an accessible record's value" };
    { name = "swap-app";
      category = Soundness;
      description = "swap the APP signatures of two accessible records" };
    { name = "forge-pseudo";
      category = Soundness;
      description =
        "present an accessible record as inaccessible, replaying its APP as \
         the APS" };
    { name = "replay-aps";
      category = Soundness;
      description = "swap the APS signatures of two inaccessible entries" };
    { name = "value-hash-lie";
      category = Soundness;
      description = "flip a byte of an inaccessible leaf's value hash" };
    { name = "tamper-policy";
      category = Soundness;
      description =
        "rewrite an accessible record's policy to one the user still \
         satisfies" };
    { name = "gt-subgroup";
      category = Soundness;
      description =
        "replace the CP-ABE c_tilde of a sealed response with a Gt encoding \
         outside the order-r subgroup" };
    (* Completeness game (Theorem 7.2): omit results the user is entitled
       to. *)
    { name = "drop-entry";
      category = Completeness;
      description = "silently drop one VO entry" };
    { name = "prune-subtree";
      category = Completeness;
      description = "drop every VO entry in the upper half of the range" };
    { name = "shrink-boundary";
      category = Completeness;
      description = "shrink the region box of a pruned-subtree APS entry" };
    { name = "duplicate-entry";
      category = Completeness;
      description = "present the same VO entry twice" };
    (* Wire-format attacks against the decoder itself. *)
    { name = "bit-flip";
      category = Format;
      description = "flip one random bit of the encoded VO" };
    { name = "truncate";
      category = Format;
      description = "cut trailing bytes off the encoded VO" };
    { name = "length-inflate";
      category = Format;
      description = "increment the top-level entry count field" };
    { name = "huge-count";
      category = Format;
      description = "set the top-level entry count to 2^32 - 1" };
    { name = "trailing-garbage";
      category = Format;
      description = "append random bytes after a valid encoding" };
  ]

(* Network-boundary faults, injected by the chaos proxy ([zkqac chaos])
   between a client and a live SP daemon rather than on decoded VOs. They
   attack availability and framing, not signatures, so the acceptable
   outcomes differ in kind: a fault must end in a typed transport error or a
   successful retry, and must never yield an accepted tamper, a crash, or a
   hang past the client's deadline. Kept out of {!all} because the VO-level
   harness has no socket to cut. *)
let network =
  [
    { name = "net-stall";
      category = Transport;
      description = "accept the connection, read the request, never respond" };
    { name = "net-slowloris";
      category = Transport;
      description = "dribble the response out slower than the read deadline" };
    { name = "net-truncate";
      category = Transport;
      description = "forward the response but close mid-VO after N bytes" };
    { name = "net-disconnect";
      category = Transport;
      description = "close the connection after N bytes of the request" };
    { name = "net-corrupt";
      category = Transport;
      description = "flip bytes of the forwarded response frame" };
    { name = "net-refuse";
      category = Transport;
      description = "refuse to accept connections for a burst" };
  ]

(* Process-death faults, injected by the crash harness: a real server is
   SIGKILLed at a randomized point and restarted. They attack durability,
   not signatures — the acceptable outcome is that the restarted server
   recovers a valid checkpoint epoch and an intact (or tail-truncated)
   audit chain, and that every client either got a correct VO, a typed
   fault, or a successful retry. Never an accepted tamper, never a
   half-written state file taken for the truth. Kept out of {!all} because
   the VO-level harness has no process to kill. *)
let crash =
  [
    { name = "crash-mid-checkpoint";
      category = Crash;
      description =
        "SIGKILL the server while it is writing an epoch checkpoint (before \
         the atomic rename commits it)" };
    { name = "crash-torn-audit";
      category = Crash;
      description =
        "SIGKILL the server after it wrote half of an audit line, leaving a \
         torn tail" };
    { name = "crash-mid-request";
      category = Crash;
      description = "SIGKILL the server between decoding a request and answering" };
    { name = "crash-random";
      category = Crash;
      description =
        "SIGKILL the server from outside at a uniformly random moment under \
         load" };
  ]

let find name =
  List.find_opt (fun s -> String.equal s.name name) (all @ network @ crash)

let names = List.map (fun s -> s.name) all
let network_names = List.map (fun s -> s.name) network

(* Which error classes count as the *right* rejection: a tamper that is
   refused for an unrelated reason (a "generic catch-all") would not witness
   the security property the scenario encodes. *)
let expected name (e : Zkqac_util.Verify_error.t) =
  match (name, e) with
  | ("flip-value" | "swap-app" | "tamper-policy"), Bad_abs_signature _ -> true
  | ("forge-pseudo" | "replay-aps" | "value-hash-lie"), Bad_aps_signature _ ->
    true
  | ("drop-entry" | "prune-subtree" | "shrink-boundary"), Completeness_gap ->
    true
  | "duplicate-entry", (Completeness_gap | Invalid_shape _) -> true
  | "gt-subgroup", Malformed _ -> true
  | "bit-flip", _ -> true (* any typed rejection: the flip lands anywhere *)
  | ("truncate" | "length-inflate" | "trailing-garbage"), Malformed _ -> true
  | "huge-count", (Limit_exceeded _ | Malformed _) -> true
  | _ -> false
