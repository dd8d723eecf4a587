"""The paper's Section 2 scenario, end to end.

The global schema is Patient / Diagnosis / Physician / Prescription; a
peer asks "what prescriptions have been provided to patients diagnosed
with Glaucoma, aged 30-50, between Jan 2000 and Dec 2002".  The query is
parsed, selections are pushed to the leaves (Figure 1), each leaf
partition is located through the DHT (Figure 2), and the joins run locally
at the querying peer.  A second, similar query is answered from cache
without touching the sources.

Run:  python examples/medical_records.py
"""

from repro import (
    Domain,
    P2PDatabase,
    RangeSelectionSystem,
    SystemConfig,
    medical_catalog,
)

GLAUCOMA_QUERY = """
Select Prescription.prescription
from Patient, Diagnosis, Prescription
where 30 <= age and age <= 50
and diagnosis = 'Glaucoma'
and Patient.patient_id = Diagnosis.patient_id
and date between DATE '2000-01-01' and DATE '2002-12-31'
and Diagnosis.prescription_id = Prescription.prescription_id
"""

SIMILAR_QUERY = GLAUCOMA_QUERY.replace("30 <= age and age <= 50",
                                       "30 <= age and age <= 49")


def main() -> None:
    catalog = medical_catalog(n_patients=2000)
    system = RangeSelectionSystem(
        SystemConfig(
            n_peers=150,
            seed=11,
            domain=Domain("value", 0, 10**6),
        )
    )
    db = P2PDatabase(catalog, system)

    print("plan:")
    print(db.explain(GLAUCOMA_QUERY))
    print()

    first = db.execute(GLAUCOMA_QUERY)
    print(f"first execution : {first.summary()}")
    print(f"  source accesses so far: {catalog.source_accesses}")
    for row in first.result.decoded_rows(catalog.schema)[:5]:
        print(f"  prescription: {row[0]}")

    second = db.execute(GLAUCOMA_QUERY)
    print(f"repeat execution: {second.summary()}")
    print(f"  source accesses so far: {catalog.source_accesses} (unchanged)")

    similar = db.execute(SIMILAR_QUERY)
    print(f"similar (age<=49): {similar.summary()}")
    print(
        f"  source accesses so far: {catalog.source_accesses} "
        "(similar range answered from the cached partition)"
    )
    assert len(first.rows) == len(second.rows)

    # Local post-processing at the querying peer: newest prescriptions first.
    newest = db.execute(
        "SELECT prescription, date FROM Prescription "
        "WHERE date BETWEEN DATE '2000-01-01' AND DATE '2002-12-31' "
        "ORDER BY date DESC LIMIT 3"
    )
    print("\nthree newest prescriptions in the window:")
    for prescription, date in newest.result.decoded_rows(catalog.schema):
        print(f"  {date}  {prescription}")


if __name__ == "__main__":
    main()
