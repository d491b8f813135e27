type t = {
  table : Flat_table.t;
  relation : Rel.Relation.t;
  column : int;
}

let build ?(table = Flat_table.create ()) relation ~column =
  Rel.Relation.iter
    (fun tuple ->
      let key = tuple.(column) in
      if not (Rel.Value.is_null key) then
        Flat_table.add table tuple (Hashtbl.hash key))
    relation;
  Flat_table.seal table;
  { table; relation; column }

let probe t key f left =
  if not (Rel.Value.is_null key) then
    Flat_table.probe t.table (Hashtbl.hash key) f left

let lookup t key =
  let found = ref [] in
  probe t key
    (fun _ tuple ->
      if Rel.Value.equal key tuple.(t.column) then found := tuple :: !found)
    [||];
  List.rev !found

let key_count t = Rel.Relation.distinct_count t.relation t.column
let column t = t.column
