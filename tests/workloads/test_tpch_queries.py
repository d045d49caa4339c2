"""Execution tests for the TPC-H query kit.

Every supported query must plan and execute on a generated database;
where the result is cheap to verify independently, the answer itself is
checked against a direct computation over the raw rows.
"""

import pytest

from repro.engine.types import Date
from repro.workloads.tpch_queries import QUERIES, QUERY_TABLES, tpch_query


class TestRegistry:
    def test_lookup_case_insensitive(self):
        assert tpch_query("q4") == QUERIES["Q4"]

    def test_unknown_query(self):
        with pytest.raises(KeyError):
            tpch_query("Q99")

    def test_tables_listed_for_every_query(self):
        assert set(QUERY_TABLES) == set(QUERIES)


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_query_executes(tpch_db, name):
    result = tpch_db.run_sql(QUERIES[name])
    assert result.plan is not None
    # Aggregation queries without grouping always yield one row.
    if name in ("Q6", "Q14"):
        assert len(result.rows) == 1


class TestAnswerCorrectness:
    """Cross-check query answers against direct computation."""

    def _rows(self, tpch_db, table):
        return tpch_db.catalog.table(table).heap.rows

    def test_q6_revenue(self, tpch_db):
        lo = Date.parse("1994-01-01")
        hi = Date.parse("1995-01-01")
        expected = sum(
            row[5] * row[6]
            for row in self._rows(tpch_db, "lineitem")
            if lo <= row[10] < hi and 0.05 <= row[6] <= 0.07 and row[4] < 24
        )
        result = tpch_db.run_sql(QUERIES["Q6"])
        actual = result.rows[0][0]
        if expected == 0:
            assert actual is None or actual == 0
        else:
            assert actual == pytest.approx(expected)

    def test_q1_counts(self, tpch_db):
        cutoff = Date.parse("1998-12-01").add_days(-90)
        groups = {}
        for row in self._rows(tpch_db, "lineitem"):
            if row[10] <= cutoff:
                key = (row[8], row[9])
                groups[key] = groups.get(key, 0) + 1
        result = tpch_db.run_sql(QUERIES["Q1"])
        names = result.column_names
        count_pos = names.index("count_order")
        for row in result.rows:
            assert row[count_pos] == groups[(row[0], row[1])]
        assert len(result.rows) == len(groups)

    def test_q4_order_counts(self, tpch_db):
        lo = Date.parse("1993-07-01")
        hi = lo.add_months(3)
        late_orders = {
            row[0] for row in self._rows(tpch_db, "lineitem") if row[11] < row[12]
        }
        expected = {}
        for row in self._rows(tpch_db, "orders"):
            if lo <= row[4] < hi and row[0] in late_orders:
                expected[row[5]] = expected.get(row[5], 0) + 1
        result = tpch_db.run_sql(QUERIES["Q4"])
        assert dict(result.rows) == expected
        priorities = [row[0] for row in result.rows]
        assert priorities == sorted(priorities)

    def test_q13_customer_distribution(self, tpch_db):
        import re

        pattern = re.compile("special.*requests")
        per_customer = {}
        for row in self._rows(tpch_db, "orders"):
            if not pattern.search(row[8]):
                per_customer[row[1]] = per_customer.get(row[1], 0) + 1
        n_customers = tpch_db.catalog.table("customer").heap.n_rows
        distribution = {}
        for custkey in range(1, n_customers + 1):
            count = per_customer.get(custkey, 0)
            distribution[count] = distribution.get(count, 0) + 1
        result = tpch_db.run_sql(QUERIES["Q13"])
        assert {row[0]: row[1] for row in result.rows} == distribution
        # Ordered by custdist desc, then c_count desc.
        pairs = [(row[1], row[0]) for row in result.rows]
        assert pairs == sorted(pairs, reverse=True)

    def test_q18_large_orders(self, tpch_db):
        totals = {}
        for row in self._rows(tpch_db, "lineitem"):
            totals[row[0]] = totals.get(row[0], 0.0) + row[4]
        big_orders = {key for key, qty in totals.items() if qty > 212}
        result = tpch_db.run_sql(QUERIES["Q18"])
        returned_orders = {row[2] for row in result.rows}
        assert returned_orders <= big_orders
        assert len(result.rows) == min(100, len(big_orders))

    def test_q3_limit_and_order(self, tpch_db):
        result = tpch_db.run_sql(QUERIES["Q3"])
        assert len(result.rows) <= 10
        revenues = [row[1] for row in result.rows]
        assert revenues == sorted(revenues, reverse=True)

    def test_q14_ratio_bounded(self, tpch_db):
        result = tpch_db.run_sql(QUERIES["Q14"])
        value = result.rows[0][0]
        if value is not None:
            assert 0.0 <= value <= 100.0

    def test_q11_value_threshold(self, tpch_db):
        germany = next(
            row[0] for row in self._rows(tpch_db, "nation")
            if row[1] == "GERMANY"
        )
        german_suppliers = {
            row[0] for row in self._rows(tpch_db, "supplier")
            if row[3] == germany
        }
        values = {}
        total = 0.0
        for row in self._rows(tpch_db, "partsupp"):
            if row[1] in german_suppliers:
                value = row[3] * row[2]
                values[row[0]] = values.get(row[0], 0.0) + value
                total += value
        threshold = total * 0.0050
        expected = {k: v for k, v in values.items() if v > threshold}
        result = tpch_db.run_sql(QUERIES["Q11"])
        actual = {row[0]: row[1] for row in result.rows}
        assert set(actual) == set(expected)
        for key, value in actual.items():
            assert value == pytest.approx(expected[key])
        column = [row[1] for row in result.rows]
        assert column == sorted(column, reverse=True)

    def test_q16_supplier_counts(self, tpch_db):
        import re

        complainers = {
            row[0] for row in self._rows(tpch_db, "supplier")
            if re.search("Customer.*Complaints", row[6])
        }
        sizes = {49, 14, 23, 45, 19, 3, 36, 9}
        parts = {
            row[0]: (row[3], row[4], row[5])
            for row in self._rows(tpch_db, "part")
            if row[3] != "Brand#45"
            and not row[4].startswith("MEDIUM POLISHED")
            and row[5] in sizes
        }
        expected = {}
        for row in self._rows(tpch_db, "partsupp"):
            if row[0] in parts and row[1] not in complainers:
                expected.setdefault(parts[row[0]], set()).add(row[1])
        result = tpch_db.run_sql(QUERIES["Q16"])
        actual = {(row[0], row[1], row[2]): row[3] for row in result.rows}
        assert actual == {key: len(supps) for key, supps in expected.items()}

    def test_q17_small_quantity_revenue(self, tpch_db):
        parts = {
            row[0] for row in self._rows(tpch_db, "part")
            if row[3] == "Brand#23" and row[6] == "MED BOX"
        }
        per_part_quantities = {}
        for line in self._rows(tpch_db, "lineitem"):
            per_part_quantities.setdefault(line[1], []).append(line[4])
        expected = 0.0
        any_row = False
        for line in self._rows(tpch_db, "lineitem"):
            if line[1] not in parts:
                continue
            quantities = per_part_quantities[line[1]]
            threshold = 0.2 * (sum(quantities) / len(quantities))
            if line[4] < threshold:
                expected += line[5]
                any_row = True
        result = tpch_db.run_sql(QUERIES["Q17"])
        actual = result.rows[0][0]
        if not any_row:
            assert actual is None
        else:
            assert actual == pytest.approx(expected / 7.0)

    def test_q2_min_cost_suppliers(self, tpch_db):
        nations = {row[0]: (row[1], row[2])
                   for row in self._rows(tpch_db, "nation")}
        europe = {row[0] for row in self._rows(tpch_db, "region")
                  if row[1] == "EUROPE"}
        suppliers = {row[0]: row for row in self._rows(tpch_db, "supplier")}
        parts = {
            row[0]: row for row in self._rows(tpch_db, "part")
            if row[5] == 15 and row[4].endswith("BRASS")
        }

        def in_europe(supp_key):
            nation_key = suppliers[supp_key][3]
            return nations[nation_key][1] in europe

        min_cost = {}
        for ps in self._rows(tpch_db, "partsupp"):
            if ps[0] in parts and in_europe(ps[1]):
                current = min_cost.get(ps[0])
                min_cost[ps[0]] = ps[3] if current is None else min(current, ps[3])
        expected_pairs = set()
        for ps in self._rows(tpch_db, "partsupp"):
            if ps[0] in parts and in_europe(ps[1]) \
                    and ps[3] == min_cost.get(ps[0]):
                expected_pairs.add((ps[0], ps[1]))

        result = tpch_db.run_sql(QUERIES["Q2"])
        # Output columns: s_acctbal, s_name, n_name, p_partkey, ...
        actual_parts = {row[3] for row in result.rows}
        assert actual_parts == {part for part, _supp in expected_pairs}
        assert len(result.rows) == len(expected_pairs)

    def test_q21_waiting_suppliers(self, tpch_db):
        import collections

        saudi = next(row[0] for row in self._rows(tpch_db, "nation")
                     if row[1] == "SAUDI ARABIA")
        suppliers = {row[0]: row for row in self._rows(tpch_db, "supplier")}
        f_orders = {row[0] for row in self._rows(tpch_db, "orders")
                    if row[2] == "F"}
        lines_by_order = collections.defaultdict(list)
        for line in self._rows(tpch_db, "lineitem"):
            lines_by_order[line[0]].append(line)

        counts = collections.Counter()
        for line in self._rows(tpch_db, "lineitem"):
            order_key, supp_key = line[0], line[2]
            if order_key not in f_orders or not line[12] > line[11]:
                continue
            if suppliers[supp_key][3] != saudi:
                continue
            others = [l for l in lines_by_order[order_key]
                      if l[2] != supp_key]
            if not others:
                continue
            if any(l[12] > l[11] for l in others):
                continue
            counts[suppliers[supp_key][1]] += 1

        result = tpch_db.run_sql(QUERIES["Q21"])
        assert {row[0]: row[1] for row in result.rows} == dict(counts)

    def test_q9_profit_by_nation_year(self, tpch_db):
        green_parts = {row[0] for row in self._rows(tpch_db, "part")
                       if "green" in row[1]}
        nations = {row[0]: row[1] for row in self._rows(tpch_db, "nation")}
        suppliers = {row[0]: row for row in self._rows(tpch_db, "supplier")}
        orders = {row[0]: row for row in self._rows(tpch_db, "orders")}
        supply_cost = {
            (row[0], row[1]): row[3]
            for row in self._rows(tpch_db, "partsupp")
        }
        expected = {}
        for line in self._rows(tpch_db, "lineitem"):
            part, supp = line[1], line[2]
            if part not in green_parts or (part, supp) not in supply_cost:
                continue
            nation = nations[suppliers[supp][3]]
            year = orders[line[0]][4].year
            amount = line[5] * (1 - line[6]) - supply_cost[(part, supp)] * line[4]
            expected[(nation, year)] = expected.get((nation, year), 0.0) + amount
        result = tpch_db.run_sql(QUERIES["Q9"])
        actual = {(row[0], row[1]): row[2] for row in result.rows}
        assert set(actual) == set(expected)
        for key, amount in actual.items():
            assert amount == pytest.approx(expected[key])

    def test_q19_revenue(self, tpch_db):
        parts = {row[0]: row for row in self._rows(tpch_db, "part")}

        def branch(line, part, brand, containers, qty_lo, qty_hi, size_hi):
            return (part[3] == brand and part[6] in containers
                    and qty_lo <= line[4] <= qty_hi
                    and 1 <= part[5] <= size_hi)

        expected = 0.0
        for line in self._rows(tpch_db, "lineitem"):
            part = parts.get(line[1])
            if part is None or line[14] not in ("AIR", "REG AIR") \
                    or line[13] != "DELIVER IN PERSON":
                continue
            if branch(line, part, "Brand#12", ("SM CASE", "SM BOX"), 1, 11, 5) \
                    or branch(line, part, "Brand#23", ("MED BAG", "MED BOX"), 10, 20, 10) \
                    or branch(line, part, "Brand#34", ("LG CASE", "LG BOX"), 20, 30, 15):
                expected += line[5] * (1 - line[6])
        result = tpch_db.run_sql(QUERIES["Q19"])
        actual = result.rows[0][0]
        if expected == 0:
            assert actual is None or actual == 0
        else:
            assert actual == pytest.approx(expected)
