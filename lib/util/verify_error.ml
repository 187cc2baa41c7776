type t =
  | Completeness_gap
  | Bad_abs_signature of string
  | Bad_aps_signature of string
  | Bad_aps_policy of string
  | Record_outside_query of int array
  | Policy_not_satisfied of int array
  | Malformed of { offset : int }
  | Limit_exceeded of { what : string; limit : int }
  | Digest_mismatch of string
  | Envelope_open_failed of string
  | Query_mismatch
  | Invalid_shape of string

let key_string key =
  String.concat "," (Array.to_list (Array.map string_of_int key))

let to_string = function
  | Completeness_gap -> "VO regions do not account for the whole query range"
  | Bad_abs_signature what -> "invalid APP signature: " ^ what
  | Bad_aps_signature what -> "invalid APS signature: " ^ what
  | Bad_aps_policy what -> "inconsistent APS entry: " ^ what
  | Record_outside_query key ->
    Printf.sprintf "record (%s) outside the query range" (key_string key)
  | Policy_not_satisfied key ->
    Printf.sprintf "record (%s) returned but not accessible" (key_string key)
  | Malformed { offset } ->
    if offset < 0 then "malformed input"
    else Printf.sprintf "malformed input at byte %d" offset
  | Limit_exceeded { what; limit } ->
    Printf.sprintf "decode limit exceeded: %s > %d" what limit
  | Digest_mismatch what -> "digest mismatch: " ^ what
  | Envelope_open_failed why -> "cannot open response envelope: " ^ why
  | Query_mismatch -> "response is bound to a different query"
  | Invalid_shape what -> "VO shape invalid for this query type: " ^ what

let code = function
  | Completeness_gap -> "completeness-gap"
  | Bad_abs_signature _ -> "bad-abs-signature"
  | Bad_aps_signature _ -> "bad-aps-signature"
  | Bad_aps_policy _ -> "bad-aps-policy"
  | Record_outside_query _ -> "record-outside-query"
  | Policy_not_satisfied _ -> "policy-not-satisfied"
  | Malformed _ -> "malformed"
  | Limit_exceeded _ -> "limit-exceeded"
  | Digest_mismatch _ -> "digest-mismatch"
  | Envelope_open_failed _ -> "envelope-open-failed"
  | Query_mismatch -> "query-mismatch"
  | Invalid_shape _ -> "invalid-shape"

let exit_code = function
  | Completeness_gap -> 10
  | Bad_abs_signature _ -> 11
  | Bad_aps_signature _ -> 12
  | Bad_aps_policy _ -> 13
  | Record_outside_query _ -> 14
  | Policy_not_satisfied _ -> 15
  | Malformed _ -> 16
  | Limit_exceeded _ -> 17
  | Digest_mismatch _ -> 18
  | Envelope_open_failed _ -> 19
  | Query_mismatch -> 20
  | Invalid_shape _ -> 21

let as_aps = function Bad_abs_signature w -> Bad_aps_signature w | e -> e
