(** The KeyNote compliance checker (RFC 2704 §5).

    Given local policy assertions, a set of credentials, the
    requesting principals and an action-attribute set, the checker
    computes the compliance value: the highest element of the query's
    ordered value set that the policy authorizes for this action.

    Evaluation walks the delegation graph rooted at [POLICY]: an
    assertion contributes [min(conditions, licensees)] where the
    licensees structure combines the recursively-computed values of
    the principals it names ([&&] is min, [||] is max, [k-of] is the
    k-th largest). Requesting principals evaluate to [_MAX_TRUST].
    Cycles evaluate to [_MIN_TRUST]; memoisation keeps the walk
    linear in the number of assertions.

    One evaluator ({!evaluate}) sits behind two entry points:
    {!check}, over plain lists, and {!Session.query}, over a
    session's persistent indexes. *)

type query = {
  requesters : Ast.principal list; (** who signed the request *)
  attributes : (string * string) list; (** the action attribute set *)
  values : string list; (** ordered compliance values, lowest first *)
}

type result = {
  level : int; (** index into [values] *)
  value : string; (** [List.nth values level] *)
  trace : string list; (** human-readable authorization path, for audit logs *)
}

val evaluate :
  authored:(Ast.principal -> 'a list) ->
  assertion:('a -> Assertion.t) ->
  fingerprint:('a -> string) ->
  query ->
  result
(** The evaluator. [authored p] lists the assertions whose normalised
    authorizer is [p] (["POLICY"] for local policy), in the order
    they are tried; [assertion] and [fingerprint] read an element.
    Only assertions that contribute a non-zero value reach the trace,
    so a caller may leave out any assertion whose licensees cannot
    reach a requester: such an assertion scores 0 (a [k-of] needs
    [k >= 1]). Raises [Invalid_argument] if [values] is empty. *)

val check :
  ?assume_verified:bool -> policy:Assertion.t list -> credentials:Assertion.t list -> query -> result
(** Credentials that fail signature verification are ignored (with a
    note in [trace]). [assume_verified] skips the per-query signature
    re-check for credential sets that were verified on admission (the
    DisCFS session does this, matching the prototype: DSA checks
    happen once at submission time, not per NFS operation). Builds a
    throwaway authorizer index and prunes nothing: the oracle for the
    indexed {!Session.query}. Raises [Invalid_argument] if [values]
    is empty. *)
